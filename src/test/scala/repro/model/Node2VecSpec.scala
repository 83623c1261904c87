package repro.model

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState

/** Node2vec model semantics (Eq. 2): the three alpha cases, the 2D state
  * layout, and KnightKing's outlier accounting.
  */
class Node2VecSpec extends AnyFunSuite {
  // Triangle 0-1-2 (+pendant 3 on 0): from state (s=1, v=0):
  //   candidate 1: return       -> alpha = 1/p
  //   candidate 2: d(2,1)=1     -> alpha = 1   (edge 1-2 exists)
  //   candidate 3: d(3,1)=2     -> alpha = 1/q (no edge 1-3)
  private val g = TestGraphs.trianglePendant
  private def e(v: Int, u: Int): Int = g.offset(v) + g.neighborIndexOf(v, u)

  test("alpha = 1/p on the return edge") {
    val m = new Node2Vec(4.0, 1.0)
    val s = WalkState(1, 0, 0)
    assert(math.abs(m.calculateWeight(g, s, e(0, 1)) - g.weight(e(0, 1)) / 4.0) < 1e-9)
  }

  test("alpha = 1 on triangle edges") {
    val m = new Node2Vec(4.0, 0.5)
    val s = WalkState(1, 0, 0)
    assert(math.abs(m.calculateWeight(g, s, e(0, 2)) - g.weight(e(0, 2)).toDouble) < 1e-9)
  }

  test("alpha = 1/q on two-hop edges") {
    val m = new Node2Vec(1.0, 4.0)
    val s = WalkState(1, 0, 0)
    assert(math.abs(m.calculateWeight(g, s, e(0, 3)) - g.weight(e(0, 3)) / 4.0) < 1e-9)
  }

  test("first step (no previous edge) falls back to alpha = 1") {
    val m = new Node2Vec(0.25, 4.0)
    val s = m.initialState(g, 0)
    for (j <- 0 until g.degree(0)) {
      val ee = g.offset(0) + j
      assert(m.calculateWeight(g, s, ee) == g.weight(ee).toDouble)
    }
  }

  test("normalized distribution matches Eq. 2 exactly") {
    val m = new Node2Vec(0.5, 2.0)
    val s = WalkState(1, 0, 0)
    val target = TestGraphs.targetDistribution(g, m, s)
    val raw = Seq(g.weight(e(0, 1)) / 0.5, g.weight(e(0, 2)) * 1.0, g.weight(e(0, 3)) / 2.0)
    val z = raw.sum
    // slots of N(0) sorted: 1, 2, 3
    raw.zipWithIndex.foreach { case (w, j) => assert(math.abs(target(j) - w / z) < 1e-9) }
  }

  test("updateState records the traversed edge") {
    val m = new Node2Vec(1, 1)
    assert(m.updateState(g, WalkState(1, 0, 0), e(0, 2)) == WalkState(0, 2, 0))
  }

  test("state space is |E| (second order)") {
    val m = new Node2Vec(1, 1)
    assert(m.isSecondOrder)
    assert(m.numStates(g) == g.numDirectedEdges)
  }

  test("2D layout: affixture is the index of prev among N(cur)") {
    val m = new Node2Vec(1, 1)
    assert(m.affixture(g, WalkState(2, 0, 0)) == g.neighborIndexOf(0, 2))
    assert(m.affixture(g, WalkState(-1, 0, 0)) == g.degree(0)) // first-step slot
    assert(m.bucketSize(g, 0) == g.degree(0) + 1)
  }

  test("stateFor is the inverse of affixture") {
    val secondOrder = Seq(new Node2Vec(1, 1), Edge2Vec(0.5, 2.0), new FairWalk(2.0, 0.5))
    val models = Seq(new DeepWalk, new MetaPath2Vec(Array(0, 1, 2))) ++ secondOrder
    for (graph <- Seq(g, TestGraphs.typedGraph); m <- models) {
      val slots = for (v <- 0 until graph.numNodes; a <- 0 until m.bucketSize(graph, v)) yield {
        val s = m.stateFor(graph, v, a)
        assert(m.affixture(graph, s) == a, s"${m.name} v=$v a=$a")
        assert(m.slot(graph, s) == m.slotBase(graph, v) + a, s"${m.name} v=$v a=$a")
        m.slot(graph, s)
      }
      // The buckets tile [0, numSlots) in node order, no gap or overlap.
      assert(slots == (0 until m.numSlots(graph)), m.name)
    }
    // The node2vec family (SecondOrderModel) keeps the first step's
    // prev-less state in the last slot of each bucket.
    for (graph <- Seq(g, TestGraphs.typedGraph); m <- secondOrder; v <- 0 until graph.numNodes) {
      assert(m.stateFor(graph, v, graph.degree(v)) == WalkState(-1, v, 0), m.name)
      assert(m.initialState(graph, v) == WalkState(-1, v, 0), m.name)
      assert(m.affixture(graph, m.initialState(graph, v)) == graph.degree(v), m.name)
    }
  }

  test("bias bounds cover the three alpha values") {
    val m = new Node2Vec(0.25, 4.0)
    assert(m.maxBias == 4.0)
    assert(m.minBias == 0.25)
    assert(m.foldedMaxBias == 1.0) // max(1, 1/q) with q=4
  }

  test("outlier edge exists iff 1/p dominates the folded envelope") {
    val out = new Node2Vec(0.25, 1.0) // 1/p = 4 > max(1, 1/q) = 1
    assert(out.outlierEdge(g, WalkState(1, 0, 0)) == e(0, 1))
    val none = new Node2Vec(4.0, 1.0) // 1/p = 0.25 < 1
    assert(none.outlierEdge(g, WalkState(1, 0, 0)) == -1)
    val qDominates = new Node2Vec(0.5, 0.25) // 1/p = 2 < 1/q = 4
    assert(qDominates.outlierEdge(g, WalkState(1, 0, 0)) == -1)
    assert(out.outlierEdge(g, WalkState(-1, 0, 0)) == -1) // first step has none
  }

  test("hyper-parameters must be positive") {
    assertThrows[IllegalArgumentException](new Node2Vec(0, 1))
    assertThrows[IllegalArgumentException](new Node2Vec(1, -2))
  }
}
