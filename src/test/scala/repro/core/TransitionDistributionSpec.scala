package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.model.{DeepWalk, Edge2Vec, FairWalk, Node2Vec}
import repro.sampler.{AliasSamplerFactory, DirectSamplerFactory, HighWeightInit, MHSamplerFactory, RandomInit}

/** End-to-end statistical correctness: the transition frequencies of the
  * generated walks must match each model's normalized target distribution
  * (the paper's accuracy argument in §V-B, reduced to its measurable
  * core: the sampled distributions, not the downstream classifier).
  */
class TransitionDistributionSpec extends SparkSpec {

  /** Empirical first-step distribution out of `start` over many walks. */
  private def firstStepDist(g: repro.graph.CSRGraph, model: RandomWalkModel,
                            factory: repro.sampler.SamplerFactory,
                            start: Int, walks: Int, seed: Long): Array[Double] = {
    val bcG = spark.sparkContext.broadcast(g)
    factory.prepare(g, model, parallel = true)
    // Start every walk at `start` by using a 1-node view trick: generate
    // many 1-step walks from each node, then filter on the start node.
    val (rdd, _) = UniNet.generateWalksPrepared(
      spark, bcG, model, spark.sparkContext.broadcast(factory), walks, 1, 8, seed)
    val counts = rdd.filter(_.head == start).map(_.lift(1)).collect()
    bcG.destroy()
    val d = g.degree(start)
    val c = new Array[Double](d)
    counts.flatten.foreach { next =>
      val slot = g.neighborIndexOf(start, next)
      assert(slot >= 0)
      c(slot) += 1
    }
    val n = counts.length.toDouble
    c.map(_ / n)
  }

  test("deepwalk first-step frequencies match Eq. 1 (M-H sampler)") {
    val g = TestGraphs.starWithWeights(Seq(1, 2, 3, 4))
    val m = new DeepWalk
    val emp = firstStepDist(g, m, new MHSamplerFactory(RandomInit), 0, 40_000, 17L)
    val target = TestGraphs.targetDistribution(g, m, m.initialState(g, 0))
    assert(TestGraphs.l1(emp, target) < 0.04)
  }

  test("deepwalk first-step frequencies match Eq. 1 (direct sampler, exact)") {
    val g = TestGraphs.starWithWeights(Seq(1, 2, 3, 4))
    val m = new DeepWalk
    val emp = firstStepDist(g, m, DirectSamplerFactory, 0, 40_000, 19L)
    val target = TestGraphs.targetDistribution(g, m, m.initialState(g, 0))
    assert(TestGraphs.l1(emp, target) < 0.03)
  }

  /** Conditional second-step distribution: over walks whose first two
    * nodes are (start, mid), the third node's distribution must follow
    * the second-order target of state (start, mid).
    */
  private def secondStepDist(g: repro.graph.CSRGraph, model: RandomWalkModel,
                             factory: repro.sampler.SamplerFactory,
                             start: Int, mid: Int, walks: Int, seed: Long): Array[Double] = {
    val bcG = spark.sparkContext.broadcast(g)
    factory.prepare(g, model, parallel = true)
    val (rdd, _) = UniNet.generateWalksPrepared(
      spark, bcG, model, spark.sparkContext.broadcast(factory), walks, 2, 8, seed)
    val nexts = rdd
      .filter(w => w.length == 3 && w(0) == start && w(1) == mid)
      .map(_(2)).collect()
    bcG.destroy()
    assert(nexts.length > 2000, s"only ${nexts.length} conditioning walks")
    val c = new Array[Double](g.degree(mid))
    nexts.foreach { u => c(g.neighborIndexOf(mid, u)) += 1 }
    c.map(_ / nexts.length)
  }

  test("node2vec conditional second-step frequencies match Eq. 2 (direct)") {
    val g = TestGraphs.trianglePendant
    val m = new Node2Vec(0.25, 4.0)
    val emp = secondStepDist(g, m, DirectSamplerFactory, 1, 0, 60_000, 23L)
    val target = TestGraphs.targetDistribution(g, m, TestGraphs.arrived(g, m, 1, 0))
    assert(TestGraphs.l1(emp, target) < 0.05)
  }

  test("node2vec conditional second-step frequencies match Eq. 2 (M-H)") {
    val g = TestGraphs.trianglePendant
    val m = new Node2Vec(0.25, 4.0)
    val emp = secondStepDist(g, m, new MHSamplerFactory(HighWeightInit()), 1, 0, 60_000, 29L)
    val target = TestGraphs.targetDistribution(g, m, TestGraphs.arrived(g, m, 1, 0))
    // All walks at state (1, 0) read one shared chain, so consecutive
    // draws are correlated; the tolerance is looser than the direct
    // sampler's (measured L1 0.009-0.021 over five runs).
    assert(TestGraphs.l1(emp, target) < 0.06)
  }

  test("node2vec conditional second-step frequencies match Eq. 2 (alias)") {
    val g = TestGraphs.trianglePendant
    val m = new Node2Vec(0.25, 4.0)
    val emp = secondStepDist(g, m, new AliasSamplerFactory, 1, 0, 60_000, 37L)
    val target = TestGraphs.targetDistribution(g, m, TestGraphs.arrived(g, m, 1, 0))
    assert(TestGraphs.l1(emp, target) < 0.05)
  }

  test("edge2vec and fairwalk conditional second-step frequencies match Eqs. 3 and 5 (M-H)") {
    val g = TestGraphs.typedGraph
    for ((m, seed) <- Seq((Edge2Vec(0.25, 4.0), 41L), (new FairWalk(0.25, 4.0), 43L))) {
      val emp = secondStepDist(g, m, new MHSamplerFactory(HighWeightInit()), 1, 0, 60_000, seed)
      val target = TestGraphs.targetDistribution(g, m, TestGraphs.arrived(g, m, 1, 0))
      assert(TestGraphs.l1(emp, target) < 0.06, m.name)
    }
  }

  test("fairwalk equalizes type masses in first-step frequencies (M-H)") {
    val g = TestGraphs.typedGraph
    val m = new FairWalk(1, 1)
    val emp = firstStepDist(g, m, new MHSamplerFactory(HighWeightInit()), 0, 60_000, 31L)
    def mass(t: Int): Double =
      (0 until g.degree(0)).collect {
        case j if g.nodeType(g.dst(g.offset(0) + j)) == t => emp(j)
      }.sum
    // Types 1 and 2 have identical weights and group sizes -> equal mass.
    assert(math.abs(mass(1) - mass(2)) < 0.03)
  }
}
