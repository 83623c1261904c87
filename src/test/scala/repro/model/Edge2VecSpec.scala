package repro.model

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState

/** Edge2vec model semantics (Eq. 3): alpha * M(phi, phi') * w. */
class Edge2VecSpec extends AnyFunSuite {
  private val g = TestGraphs.typedGraph // types 0,1,2,0,1,2
  private def e(v: Int, u: Int): Int = g.offset(v) + g.neighborIndexOf(v, u)

  test("default matrix is square over T^2 edge types with positive entries") {
    val m = Edge2Vec.Matrix
    assert(m.length == 9 && m.forall(_.length == 9))
    assert(m.flatten.forall(x => x >= 0.2 && x <= 1.0))
  }

  test("dynamic weight combines alpha, M, and the static weight") {
    val model = Edge2Vec(2.0, 4.0)
    // Arrived 1 -> 0 (types 1 -> 0, edge type 1*3+0 = 3); candidate 0 -> 4.
    val s = WalkState(1, 0, 0)
    val cand = e(0, 4)
    // 4 is a neighbor of 1 -> alpha = 1; edge type of (0,4) = 0*3+1 = 1.
    val expected = 1.0 * Edge2Vec.Matrix(3)(1) * g.weight(cand)
    assert(math.abs(model.calculateWeight(g, s, cand) - expected) < 1e-9)
  }

  test("return edge uses alpha = 1/p with the M factor") {
    val model = Edge2Vec(2.0, 4.0)
    val s = WalkState(1, 0, 0)
    val ret = e(0, 1)
    val mFac = Edge2Vec.Matrix(3)(0 * 3 + 1) // (0,1) edge type = 1
    val expected = 0.5 * mFac * g.weight(ret)
    assert(math.abs(model.calculateWeight(g, s, ret) - expected) < 1e-9)
  }

  test("two-hop edge uses alpha = 1/q") {
    val model = Edge2Vec(1.0, 4.0)
    // From state (5 -> 2): N(2) = {0, 1, 3, 5}; 3 is not adjacent to 5.
    val s = WalkState(5, 2, 0)
    val cand = e(2, 3)
    val mFac = Edge2Vec.Matrix(2 * 3 + 2)(2 * 3 + 0)
    val expected = 0.25 * mFac * g.weight(cand)
    assert(math.abs(model.calculateWeight(g, s, cand) - expected) < 1e-9)
  }

  test("first step ignores alpha and M") {
    val model = Edge2Vec(0.25, 4.0)
    val s = model.initialState(g, 0)
    for (j <- 0 until g.degree(0)) {
      val ee = g.offset(0) + j
      assert(model.calculateWeight(g, s, ee) == g.weight(ee).toDouble)
    }
  }

  test("bias bounds include the matrix range") {
    val model = Edge2Vec(0.25, 4.0)
    val mat = Edge2Vec.Matrix
    assert(math.abs(model.maxBias - 4.0 * mat.map(_.max).max) < 1e-9)
    assert(math.abs(model.minBias - 0.25 * mat.map(_.min).min) < 1e-9)
  }

  test("no deterministic outlier (folding ineffective, paper §V-E)") {
    val model = Edge2Vec(0.25, 1.0)
    assert(model.outlierEdge(g, WalkState(1, 0, 0)) == -1)
  }

  test("second-order state bookkeeping matches node2vec's layout") {
    val model = Edge2Vec(1.0, 1.0)
    assert(model.isSecondOrder)
    assert(model.numStates(g) == g.numDirectedEdges)
    assert(model.bucketSize(g, 0) == g.degree(0) + 1)
    val s = TestGraphs.arrived(g, model, 1, 0)
    assert(model.affixture(g, s) == g.neighborIndexOf(0, 1))
    assert(model.stateFor(g, 0, g.neighborIndexOf(0, 1)) == s)
  }
}
