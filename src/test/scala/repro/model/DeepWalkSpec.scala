package repro.model

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState

/** Deepwalk model semantics (Eq. 1, Table IV). */
class DeepWalkSpec extends AnyFunSuite {
  private val g = TestGraphs.trianglePendant
  private val m = new DeepWalk

  test("dynamic weight equals the static edge weight") {
    val s = m.initialState(g, 0)
    for (j <- 0 until g.degree(0)) {
      val e = g.offset(0) + j
      assert(m.calculateWeight(g, s, e) == g.weight(e).toDouble)
    }
  }

  test("normalized target matches Eq. 1") {
    val s = m.initialState(g, 0)
    val target = TestGraphs.targetDistribution(g, m, s)
    val sum = (0 until g.degree(0)).map(j => g.weight(g.offset(0) + j).toDouble).sum
    for (j <- 0 until g.degree(0)) {
      assert(math.abs(target(j) - g.weight(g.offset(0) + j) / sum) < 1e-9)
    }
  }

  test("state is the current node only (first-order)") {
    assert(!m.isSecondOrder)
    val s = WalkState(-1, 0, 0)
    val e = g.offset(0) + g.neighborIndexOf(0, 2)
    assert(m.updateState(g, s, e) == WalkState(0, 2, 0))
  }

  test("2D layout: single-slot buckets, affixture 0") {
    assert(m.bucketSize(g, 0) == 1)
    assert(m.affixture(g, WalkState(3, 0, 0)) == 0)
    assert(m.stateFor(g, 2, 0) == WalkState(-1, 2, 0))
  }

  test("number of states is |V|") {
    assert(m.numStates(g) == g.numNodes)
  }

  test("bias is identically 1 (static = dynamic)") {
    val s = m.initialState(g, 0)
    for (j <- 0 until g.degree(0)) assert(m.bias(g, s, g.offset(0) + j) == 1.0)
    assert(m.maxBias == 1.0 && m.minBias == 1.0)
  }
}
