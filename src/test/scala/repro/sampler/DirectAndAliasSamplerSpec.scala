package repro.sampler

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState
import repro.model.{DeepWalk, MetaPath2Vec, Node2Vec}

/** Distribution correctness of the direct and alias edge samplers against
  * the models' normalized targets.
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
    val s = WalkState(1, 0, 0)
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
    val s = WalkState(1, 0, 0)
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

  test("lazy caches build a state with no permitted edge once") {
    // Path 0-1-2 typed 0,1,0: node 0 has no type-0 neighbor, so the
    // metapath 0-0 dead-ends there.
    val t = TestGraphs.fromTriples(
      3, Seq((0, 1, 1.0), (1, 2, 1.0)), Array[Byte](0, 1, 0), 2)
    val m = new MetaPath2Vec(Array(0, 0))
    val s = m.initialState(t, 0)
    val f = new MemoryAwareSamplerFactory(Long.MaxValue)
    f.prepare(t, m, parallel = false)
    val sampler = f.create(t, m)
    val rng = new SplittableRandom(5)
    (0 until 10).foreach(_ => assert(sampler.sample(s, rng) == -1))
    assert(sampler.stats.initCount == 1)
    assert(sampler.stats.localBytes == 0L)
  }

  test("create before prepare fails fast") {
    val f = new AliasSamplerFactory
    assertThrows[IllegalArgumentException](f.create(g, new DeepWalk))
  }
}
