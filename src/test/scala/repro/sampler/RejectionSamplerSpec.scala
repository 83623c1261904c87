package repro.sampler

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState
import repro.model.{DeepWalk, MetaPath2Vec, Node2Vec}

/** Rejection edge sampler: distribution correctness and the acceptance
  * ratio math behind Table II's parameter sensitivity.
  */
class RejectionSamplerSpec extends AnyFunSuite {
  private val g = TestGraphs.trianglePendant

  private def sampler(m: repro.core.RandomWalkModel) = {
    val f = new KnightKingSamplerFactory(optimized = false)
    f.prepare(g, m, parallel = false)
    (f, f.create(g, m))
  }

  test("deepwalk: proposal equals target, acceptance ratio is 1") {
    val m = new DeepWalk
    val (_, smp) = sampler(m)
    val s = m.initialState(g, 0)
    val emp = TestGraphs.empiricalDistribution(g, smp, s, 100_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02)
    assert(smp.stats.accepts == smp.stats.trials)
  }

  test("node2vec: matches Eq. 2 for several hyper-parameter settings") {
    // (1, 2) has the positive bias floor KnightKing pre-accepts with.
    for ((p, q) <- Seq((0.25, 4.0), (4.0, 0.25), (1.0, 1.0), (0.5, 2.0), (1.0, 2.0))) {
      val m = new Node2Vec(p, q)
      val (_, smp) = sampler(m)
      val s = TestGraphs.arrived(g, m, 1, 0)
      val emp = TestGraphs.empiricalDistribution(g, smp, s, 200_000)
      assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02,
             s"(p,q)=($p,$q)")
      assert(smp.stats.preAccepts == 0, s"(p,q)=($p,$q)")
    }
  }

  test("acceptance ratio equals E[bias] / maxBias analytically") {
    // Star with uniform weights: every draw is uniform over leaves; with
    // node2vec from state (leaf 1, center), alpha of each candidate is
    // known, so acceptance = mean(alpha) / max(alpha).
    val star = TestGraphs.starWithWeights(Seq(1, 1, 1, 1))
    val m = new Node2Vec(0.25, 1.0) // return alpha 4, others 1/q = 1
    val f = new KnightKingSamplerFactory(optimized = false)
    f.prepare(star, m, parallel = false)
    val smp = f.create(star, m)
    val s = TestGraphs.arrived(g, m, 1, 0)
    TestGraphs.empiricalDistribution(star, smp, s, 200_000)
    val expected = (4.0 + 1 + 1 + 1) / 4 / 4.0 // E[alpha] / envelope
    val measured = smp.stats.accepts.toDouble / smp.stats.trials
    assert(math.abs(measured - expected) < 0.02, s"measured $measured expected $expected")
  }

  test("acceptance ratio degrades as q grows (Table II shape)") {
    def acceptance(p: Double, q: Double): Double = {
      val m = new Node2Vec(p, q)
      val (_, smp) = sampler(m)
      TestGraphs.empiricalDistribution(g, smp, TestGraphs.arrived(g, m, 1, 0), 50_000)
      smp.stats.accepts.toDouble / smp.stats.trials
    }
    val a11 = acceptance(1, 1)
    val a14 = acceptance(1, 4)
    val a025 = acceptance(0.25, 1)
    assert(a11 > 0.99)
    assert(a14 < a11)
    assert(a025 < a11)
  }

  test("metapath masking: only matching types are returned, via fallback if needed") {
    val t = TestGraphs.typedGraph
    val m = new MetaPath2Vec(Array(0, 1, 2))
    val f = new KnightKingSamplerFactory(optimized = false)
    f.prepare(t, m, parallel = false)
    val smp = f.create(t, m)
    val s = WalkState(-1, 0, 0) // target type 1: neighbors 1 and 4 only
    val emp = TestGraphs.empiricalDistribution(t, smp, s, 50_000)
    for (j <- 0 until t.degree(0)) {
      val u = t.dst(t.offset(0) + j)
      if (t.nodeType(u) == 1) assert(emp(j) > 0.3) else assert(emp(j) == 0.0)
    }
  }

  test("memory: static proposal takes 6 bytes per edge") {
    // A float and a char alias per directed edge, plus a 4-byte offset and
    // an 8-byte weight sum per node.
    val m = new DeepWalk
    val (f, _) = sampler(m)
    assert(f.memoryBytes(g, m) == AliasStore.bytes(g.numNodes, g.numDirectedEdges, wide = false) + 8L * g.numNodes)
  }

  test("create before prepare fails fast") {
    assertThrows[IllegalArgumentException](
      new KnightKingSamplerFactory(optimized = false).create(g, new DeepWalk))
  }
}
