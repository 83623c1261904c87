package repro.sampler

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState
import repro.model.{DeepWalk, MetaPath2Vec, Node2Vec}

/** Distribution correctness of the direct and alias edge samplers against
  * the models' normalized targets, and the alias sampler's byte budget:
  * greedy high-degree-first assignment, and the budget bounding memory.
  */
class DirectAndAliasSamplerSpec extends AnyFunSuite {
  private val g = TestGraphs.trianglePendant

  test("direct sampler matches deepwalk's Eq. 1 distribution") {
    val m = new DeepWalk
    val s = m.initialState(g, 0)
    val sampler = DirectSamplerFactory.create(g, m)
    val emp = TestGraphs.empiricalDistribution(g, sampler, s, 200_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02)
  }

  test("direct sampler matches node2vec's Eq. 2 distribution") {
    val m = new Node2Vec(0.25, 4.0)
    val s = TestGraphs.arrived(g, m, 1, 0)
    val sampler = DirectSamplerFactory.create(g, m)
    val emp = TestGraphs.empiricalDistribution(g, sampler, s, 200_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02)
  }

  test("direct sampler returns -1 on isolated nodes") {
    val iso = repro.graph.CSRGraph.fromUndirectedEdges(3, Array(0), Array(1), Array(1f))
    val sampler = DirectSamplerFactory.create(iso, new DeepWalk)
    assert(sampler.sample(WalkState(-1, 2, 0), new SplittableRandom(1)) == -1)
  }

  test("direct sampler returns -1 when all dynamic weights are zero") {
    val t = TestGraphs.typedGraph
    val m = new MetaPath2Vec(Array(0, 1))
    val s = m.initialState(t, 2) // type 2 not on the path: everything masked
    val sampler = DirectSamplerFactory.create(t, m)
    assert(sampler.sample(s, new SplittableRandom(1)) == -1)
  }

  test("direct sampler counts O(deg) work per draw") {
    val m = new DeepWalk
    val sampler = DirectSamplerFactory.create(g, m)
    val rng = new SplittableRandom(2)
    (0 until 10).foreach(_ => sampler.sample(WalkState(-1, 0, 0), rng))
    assert(sampler.stats.steps == 10)
    assert(sampler.stats.trials == 10L * g.degree(0))
  }

  test("precompute-all alias sampler matches node2vec's distribution") {
    val m = new Node2Vec(0.5, 2.0)
    val f = new AliasSamplerFactory
    f.prepare(g, m, parallel = false)
    val sampler = f.create(g, m)
    val s = TestGraphs.arrived(g, m, 1, 0)
    val emp = TestGraphs.empiricalDistribution(g, sampler, s, 200_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02)
  }

  test("precompute-all covers every state including the first-step slot") {
    val m = new Node2Vec(0.5, 2.0)
    val f = new AliasSamplerFactory
    f.prepare(g, m, parallel = true)
    val sampler = f.create(g, m)
    val s = m.initialState(g, 0)
    val emp = TestGraphs.empiricalDistribution(g, sampler, s, 100_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.03)
  }

  test("precompute-all reports the O(d * #state) memory footprint") {
    val m = new Node2Vec(1, 1)
    val f = new AliasSamplerFactory
    f.prepare(g, m, parallel = false)
    val expected = (0 until g.numNodes)
      .map(v => AliasMethod.tableBytes(g.degree(v)) * (g.degree(v) + 1)).sum
    assert(f.memoryBytes(g, m) == expected)
  }

  test("precompute alias stops a metapath walk that starts off the path") {
    val t = TestGraphs.typedGraph
    val m = new MetaPath2Vec(Array(0, 1))
    val s = m.initialState(t, 2) // type 2 not on the path: everything masked
    val f = new AliasSamplerFactory
    f.prepare(t, m, parallel = false)
    val sampler = f.create(t, m)
    val rng = new SplittableRandom(5)
    (0 until 5).foreach(_ => assert(sampler.sample(s, rng) == -1))
  }

  test("an assigned state with no permitted edge returns -1 and costs no bytes") {
    // Path 0-1-2 typed 0,1,0: nodes 0 and 2 have no type-0 neighbor, so
    // the metapath 0-0 dead-ends there; only node 1's position-1 state
    // (both neighbors of type 0) admits an edge.
    val t = TestGraphs.fromTriples(
      3, Seq((0, 1, 1.0), (1, 2, 1.0)), Array[Byte](0, 1, 0), 2)
    val m = new MetaPath2Vec(Array(0, 0))
    val s = m.initialState(t, 0)
    val f = new AliasSamplerFactory
    f.prepare(t, m, parallel = false)
    val sampler = f.create(t, m)
    val rng = new SplittableRandom(5)
    (0 until 10).foreach(_ => assert(sampler.sample(s, rng) == -1))
    assert(f.memoryBytes(t, m) == AliasMethod.tableBytes(t.degree(1)))
  }

  test("create before prepare fails fast") {
    val f = new AliasSamplerFactory
    assertThrows[IllegalArgumentException](f.create(g, new DeepWalk))
  }

  // Under a byte budget the alias sampler is the memory-aware sampler
  // (SIGMOD'20): alias tables for the nodes the budget covers, highest
  // degree first, and direct draws everywhere else.
  private lazy val mg = TestGraphs.mediumGraph()
  private val mm = new Node2Vec(0.5, 2.0)

  private def budgeted(budget: Long): (AliasSamplerFactory, EdgeSampler) = {
    val f = new AliasSamplerFactory(budget)
    f.prepare(mg, mm, parallel = false)
    (f, f.create(mg, mm))
  }

  test("zero budget: every state samples directly (O(deg) trials)") {
    val (f, smp) = budgeted(0L)
    assert(f.memoryBytes(mg, mm) == 0L)
    val s = TestGraphs.arrived(mg, mm, mg.dst(mg.offset(0)), 0)
    val emp = TestGraphs.empiricalDistribution(mg, smp, s, 100_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(mg, mm, s)) < 0.03)
    assert(smp.stats.trials == 100_000L * mg.degree(0))
    assert(smp.stats.initCount == 0)
  }

  test("unbounded budget: every state is aliased (O(1) trials)") {
    val (f, smp) = budgeted(Long.MaxValue)
    assert(f.memoryBytes(mg, mm) > 0L) // every table is built, and counted, in prepare
    val s = TestGraphs.arrived(mg, mm, mg.dst(mg.offset(0)), 0)
    val emp = TestGraphs.empiricalDistribution(mg, smp, s, 100_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(mg, mm, s)) < 0.03)
    assert(smp.stats.trials == 100_000L)
    assert(smp.stats.initCount == 0)
    assert(smp.stats.localBytes == 0L)
  }

  test("assignment is greedy by degree: partial budgets alias the hubs first") {
    val hub = (0 until mg.numNodes).maxBy(mg.degree)
    val leaf = (0 until mg.numNodes).minBy(mg.degree)
    val hubCost = AliasMethod.tableBytes(mg.degree(hub)) * mm.bucketSize(mg, hub)
    val (f, smp) = budgeted(hubCost)
    assert(f.memoryBytes(mg, mm) <= hubCost)
    // The hub must be aliased; the cheapest node must not be.
    val sHub = TestGraphs.arrived(mg, mm, mg.dst(mg.offset(hub)), hub)
    val sLeaf = TestGraphs.arrived(mg, mm, mg.dst(mg.offset(leaf)), leaf)
    val rng = new SplittableRandom(3)
    smp.sample(sHub, rng)
    assert(smp.stats.trials == 1L, "hub state should draw from its alias table")
    smp.sample(sLeaf, rng)
    assert(smp.stats.trials - 1L == mg.degree(leaf), "leaf state should sample directly")
  }

  test("built bytes stay within the budget") {
    val budget = 8_000L
    val (f, smp) = budgeted(budget)
    assert(f.memoryBytes(mg, mm) <= budget)
    val rng = new SplittableRandom(4)
    // Touch many states: drawing allocates nothing.
    for (v <- 0 until mg.numNodes; if mg.degree(v) > 0) {
      smp.sample(TestGraphs.arrived(mg, mm, mg.dst(mg.offset(v)), v), rng)
    }
    assert(smp.stats.localBytes == 0L)
  }

  test("distribution correctness on a budget boundary mix") {
    val (_, smp) = budgeted(20_000L)
    val hub = (0 until mg.numNodes).maxBy(mg.degree)
    val s = TestGraphs.arrived(mg, mm, mg.dst(mg.offset(hub)), hub)
    val emp = TestGraphs.empiricalDistribution(mg, smp, s, 150_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(mg, mm, s)) < 0.03)
  }
}
