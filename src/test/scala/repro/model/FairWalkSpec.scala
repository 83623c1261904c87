package repro.model

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState

/** Fairwalk model semantics (Eq. 5 / Table IV): alpha * w / |K|. */
class FairWalkSpec extends AnyFunSuite {
  private val g = TestGraphs.typedGraph // types 0,1,2,0,1,2
  private def e(v: Int, u: Int): Int = g.offset(v) + g.neighborIndexOf(v, u)

  test("group size |K| counts same-type neighbors of the current node") {
    val m = new FairWalk(1, 1)
    // N(0) = {1,2,3,4,5}, types {1,2,0,1,2}: |K| for type 1 = 2, type 0 = 1.
    assert(m.groupSize(g, 0, e(0, 1)) == 2)
    assert(m.groupSize(g, 0, e(0, 3)) == 1)
    assert(m.groupSize(g, 0, e(0, 2)) == 2)
  }

  test("dynamic weight divides by the group size") {
    val m = new FairWalk(1, 1)
    val s = m.initialState(g, 0) // first step: alpha = 1
    assert(math.abs(m.calculateWeight(g, s, e(0, 3)) - g.weight(e(0, 3)) / 1.0) < 1e-9)
    assert(math.abs(m.calculateWeight(g, s, e(0, 1)) - g.weight(e(0, 1)) / 2.0) < 1e-9)
  }

  test("alpha cases compose with the group factor") {
    val m = new FairWalk(4.0, 0.5)
    val s = WalkState(1, 0, 0)
    // Return edge to 1 (type 1, |K|=2): alpha = 1/4.
    assert(math.abs(m.calculateWeight(g, s, e(0, 1)) - 0.25 * g.weight(e(0, 1)) / 2) < 1e-9)
    // Node 4 adjacent to 1: alpha = 1, type 1 group |K|=2.
    assert(math.abs(m.calculateWeight(g, s, e(0, 4)) - 1.0 * g.weight(e(0, 4)) / 2) < 1e-9)
  }

  test("per-type mass: groups get equalized total probability") {
    val m = new FairWalk(1, 1)
    val s = m.initialState(g, 0)
    val target = TestGraphs.targetDistribution(g, m, s)
    def mass(t: Int): Double =
      (0 until g.degree(0)).collect {
        case j if g.nodeType(g.dst(g.offset(0) + j)) == t => target(j)
      }.sum
    // With uniform static weights within a group, each type's total mass is
    // proportional to the group's *average* weight, not its size. Here all
    // groups would be equal if weights were; weight of (0,3) is 2.0 so type
    // 0 gets more mass, but types 1 and 2 (same weights, sizes 2) tie.
    assert(math.abs(mass(1) - mass(2)) < 1e-9)
  }

  test("homogeneous graphs degenerate to |K| = deg") {
    val h = TestGraphs.trianglePendant
    val m = new FairWalk(1, 1)
    val s = m.initialState(h, 0)
    val ee = h.offset(0)
    assert(math.abs(m.calculateWeight(h, s, ee) - h.weight(ee) / h.degree(0)) < 1e-6)
  }

  test("bias bounds: envelope from alpha, no positive floor") {
    val m = new FairWalk(0.25, 4.0)
    assert(m.maxBias == 4.0)
    assert(m.minBias == 0.0)
    assert(m.outlierEdge(g, WalkState(1, 0, 0)) == -1)
  }

  test("second-order layout matches node2vec's") {
    val m = new FairWalk(1, 1)
    assert(m.isSecondOrder)
    assert(m.numStates(g) == g.numDirectedEdges)
    assert(m.bucketSize(g, 0) == g.degree(0) + 1)
    assert(m.stateFor(g, 0, 0) == TestGraphs.arrived(g, m, g.dst(g.offset(0)), 0))
  }
}
