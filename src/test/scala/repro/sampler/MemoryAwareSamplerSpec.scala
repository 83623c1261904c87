package repro.sampler

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState
import repro.model.Node2Vec

/** Memory-aware sampler: budget-constrained alias assignment (SIGMOD'20
  * substrate) — correctness under any budget, greedy high-degree-first
  * assignment, and the budget actually bounding memory.
  */
class MemoryAwareSamplerSpec extends AnyFunSuite {
  private val g = TestGraphs.mediumGraph()
  private val m = new Node2Vec(0.5, 2.0)

  private def make(budget: Long): (MemoryAwareSamplerFactory, MemoryAwareSampler) = {
    val f = new MemoryAwareSamplerFactory(budget)
    f.prepare(g, m, parallel = false)
    (f, f.create(g, m).asInstanceOf[MemoryAwareSampler])
  }

  test("zero budget: every state samples directly (O(deg) trials)") {
    val (f, smp) = make(0L)
    assert(f.assignedBytes == 0L)
    val s = WalkState(g.dst(g.offset(0)), 0, 0)
    val emp = TestGraphs.empiricalDistribution(g, smp, s, 100_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.03)
    assert(smp.stats.trials == 100_000L * g.degree(0))
    assert(smp.stats.initCount == 0)
  }

  test("unbounded budget: every state is aliased (O(1) trials)") {
    val (f, smp) = make(Long.MaxValue)
    assert(f.assignedBytes > 0L)
    assert(f.memoryBytes(g, m) == 0L) // the tables are built, and counted, per walk task
    val s = WalkState(g.dst(g.offset(0)), 0, 0)
    val emp = TestGraphs.empiricalDistribution(g, smp, s, 100_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.03)
    assert(smp.stats.trials == 100_000L)
    assert(smp.stats.initCount == 1) // one lazy table for the single state
    assert(smp.stats.localBytes == AliasMethod.tableBytes(g.degree(0)))
  }

  test("assignment is greedy by degree: partial budgets alias the hubs first") {
    val hub = (0 until g.numNodes).maxBy(g.degree)
    val leaf = (0 until g.numNodes).minBy(g.degree)
    val hubCost = AliasMethod.tableBytes(g.degree(hub)) * m.bucketSize(g, hub)
    val (f, smp) = make(hubCost)
    assert(f.assignedBytes <= hubCost)
    // The hub must be aliased; the cheapest node must not be.
    val sHub = WalkState(g.dst(g.offset(hub)), hub, 0)
    val sLeaf = WalkState(g.dst(g.offset(leaf)), leaf, 0)
    val rng = new java.util.SplittableRandom(3)
    smp.sample(sHub, rng)
    assert(smp.stats.initCount == 1, "hub state should be lazily aliased")
    val before = smp.stats.trials
    smp.sample(sLeaf, rng)
    assert(smp.stats.trials - before == g.degree(leaf), "leaf state should sample directly")
  }

  test("lazy bytes stay within the assigned budget") {
    val budget = 8_000L
    val (f, smp) = make(budget)
    assert(f.assignedBytes <= budget)
    val rng = new java.util.SplittableRandom(4)
    // Touch many states.
    for (v <- 0 until g.numNodes; if g.degree(v) > 0) {
      smp.sample(WalkState(g.dst(g.offset(v)), v, 0), rng)
    }
    assert(smp.stats.localBytes <= f.assignedBytes)
  }

  test("distribution correctness on a budget boundary mix") {
    val (_, smp) = make(20_000L)
    val hub = (0 until g.numNodes).maxBy(g.degree)
    val s = WalkState(g.dst(g.offset(hub)), hub, 0)
    val emp = TestGraphs.empiricalDistribution(g, smp, s, 150_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.03)
  }
}
