package repro.sampler

import java.util.SplittableRandom
import java.util.concurrent.{Callable, CyclicBarrier, Executors}

import org.apache.spark.util.SizeEstimator
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, TestGraphs}
import repro.core.{UniNet, WalkState}
import repro.graph.GraphGen
import repro.model.{DeepWalk, Edge2Vec, FairWalk, MetaPath2Vec, Node2Vec}

/** M-H edge sampler (Alg. 1): chain convergence to arbitrary unnormalized
  * targets, O(1) bookkeeping, chains shared by concurrent walkers, and
  * the paper's theoretical properties.
  */
class MHSamplerSpec extends AnyFunSuite with PropHelpers {

  private def make(g: repro.graph.CSRGraph, m: repro.core.RandomWalkModel,
                   init: InitStrategy = RandomInit): MHSampler =
    new MHSamplerFactory(init).create(g, m).asInstanceOf[MHSampler]

  test("chain converges to a skewed deepwalk target (uniform proposal)") {
    val g = TestGraphs.starWithWeights(Seq(1, 2, 3, 4, 10))
    val m = new DeepWalk
    val s = m.initialState(g, 0)
    val smp = make(g, m)
    val emp = TestGraphs.empiricalDistribution(g, smp, s, 500_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02)
  }

  test("chain converges to node2vec's Eq. 2 target from a second-order state") {
    val g = TestGraphs.trianglePendant
    val m = new Node2Vec(0.25, 4.0)
    val s = TestGraphs.arrived(g, m, 1, 0)
    val smp = make(g, m)
    val emp = TestGraphs.empiricalDistribution(g, smp, s, 500_000)
    assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02)
  }

  test("chain converges under every initialization strategy") {
    val g = TestGraphs.starWithWeights(Seq(5, 1, 1, 1, 8, 2))
    val m = new DeepWalk
    val s = m.initialState(g, 0)
    for (init <- Seq(RandomInit, HighWeightInit(), BurnInInit(50))) {
      val smp = make(g, m, init)
      val emp = TestGraphs.empiricalDistribution(g, smp, s, 400_000)
      assert(TestGraphs.l1(emp, TestGraphs.targetDistribution(g, m, s)) < 0.02,
             s"init=$init")
    }
  }

  test("masked edges (metapath) are never emitted") {
    val g = TestGraphs.typedGraph
    val m = new MetaPath2Vec(Array(0, 1, 2))
    val s = WalkState(-1, 0, 0) // target type 1: only nodes 1 and 4 allowed
    val smp = make(g, m)
    val emp = TestGraphs.empiricalDistribution(g, smp, s, 100_000)
    for (j <- 0 until g.degree(0)) {
      val u = g.dst(g.offset(0) + j)
      if (g.nodeType(u) == 1) assert(emp(j) > 0.3) else assert(emp(j) == 0.0)
    }
  }

  test("the permitted-edge fallback is uniform when 32 probes miss") {
    // Center 0 (type 0) with 200 leaves; only leaves 1 and 2 (adjacent
    // slots) have type 1, so a metapath 0-1 walker at 0 has 2 permitted
    // edges and 32 uniform probes all miss about 72% of the time.
    val leaves = 200
    val types = Array.tabulate[Byte](leaves + 1)(v => if (v == 0) 0 else if (v <= 2) 1 else 2)
    val g = TestGraphs.fromTriples(leaves + 1, (1 to leaves).map(u => (0, u, 1.0)), types, 3)
    val m = new MetaPath2Vec(Array(0, 1))
    val s = m.initialState(g, 0)
    val rng = new SplittableRandom(3)
    val draws = 4000
    // A fresh chain per draw: its first emitted edge is (almost always)
    // the random initial edge.
    val first = (0 until draws).count(_ => make(g, m).sample(s, rng) == g.offset(0))
    val share = first.toDouble / draws
    assert(share > 0.45 && share < 0.55, s"first permitted edge drawn $share of the time")
  }

  test("stuck states return -1") {
    val g = TestGraphs.typedGraph
    val m = new MetaPath2Vec(Array(0, 1))
    val s = m.initialState(g, 2) // type 2 not on the path
    assert(make(g, m).sample(s, new SplittableRandom(1)) == -1)
  }

  test("a state with no permitted edge is initialized once") {
    // Path 0-1-2 typed 0,1,0: node 0 has no type-0 neighbor, so the
    // metapath 0-0 dead-ends there; typedGraph's node 2 is off the path 0-1.
    val path = TestGraphs.fromTriples(3, Seq((0, 1, 1.0), (1, 2, 1.0)), Array[Byte](0, 1, 0), 2)
    val deadEnd = new MetaPath2Vec(Array(0, 0))
    val offPath = new MetaPath2Vec(Array(0, 1))
    val cases = Seq((path, deadEnd, deadEnd.initialState(path, 0)),
                    (TestGraphs.typedGraph, offPath, offPath.initialState(TestGraphs.typedGraph, 2)))
    for ((g, m, s) <- cases; init <- Seq(RandomInit, HighWeightInit(), BurnInInit(10))) {
      val smp = make(g, m, init)
      val rng = new SplittableRandom(5)
      (0 until 10).foreach(_ => assert(smp.sample(s, rng) == -1, s"${m.name} $init"))
      assert(smp.stats.initCount == 1, s"${m.name} $init")
      assert(smp.stats.steps == 10, s"${m.name} $init")
      assert(smp.slots(m.slot(g, s)) == ChainStore.NoEdge, s"${m.name} $init")
    }
  }

  test("isolated and degree-1 nodes on the 2-byte store") {
    // Path 0-1 and the isolated node 2.
    val g = repro.graph.CSRGraph.fromUndirectedEdges(3, Array(0), Array(1), Array(1f))
    for (m <- Seq(new DeepWalk, new Node2Vec(0.5, 2.0)); init <- Seq(RandomInit, HighWeightInit())) {
      val smp = make(g, m, init)
      val rng = new SplittableRandom(9)
      assert(smp.slots.array.isInstanceOf[Array[Char]], m.name)
      // A degree-0 node draws nothing and initializes nothing.
      assert(UniNet.runWalk(g, m, smp, 2, 5, rng).toSeq == Seq(2), m.name)
      assert(smp.stats.steps == 0 && smp.stats.initCount == 0, m.name)
      // A degree-1 state's only edge is offset 0 of its slice.
      assert(UniNet.runWalk(g, m, smp, 0, 6, rng).toSeq == Seq(0, 1, 0, 1, 0, 1, 0), s"${m.name} $init")
      val states = Seq(m.initialState(g, 0), TestGraphs.arrived(g, m, 0, 1), TestGraphs.arrived(g, m, 1, 0))
      val slots = states.map(m.slot(g, _)).distinct
      assert(smp.stats.initCount == slots.size, s"${m.name} $init") // deepwalk 2, node2vec 3
      slots.foreach(x => assert(smp.slots(x) == ChainStore.First, s"${m.name} $init"))
      assert(smp.stats.accepts == smp.stats.trials, s"${m.name} $init")
    }
  }

  test("a node of degree above 65,534 takes 4-byte entries and draws on target") {
    val leaves = 65_535
    // Leaf weights step from 1 to 16 across 16 groups of 4,096 slots; the
    // last leaf, at offset 65,534, has entry 65,536, which 2 bytes cannot hold.
    val group = 4096
    val g = TestGraphs.starWithWeights((0 until leaves).map(i => 1.0 + i / group))
    val m = new DeepWalk
    val smp = make(g, m)
    assert(smp.slots.array.isInstanceOf[Array[Int]])
    assert(smp.stats.localBytes == 4L * m.numSlots(g))
    val hub = m.initialState(g, 0)
    val draws = 1_000_000
    val emp = TestGraphs.empiricalDistribution(g, smp, hub, draws, seed = 3L)
    val target = TestGraphs.targetDistribution(g, m, hub)
    def grouped(p: Array[Double]) = p.grouped(group).map(_.sum).toArray
    val l1 = TestGraphs.l1(grouped(emp), grouped(target))
    assert(l1 < 0.03, s"L1 over ${leaves / group + 1} slot groups: $l1")
    assert(emp(leaves - 1) > 0, "the last edge was never drawn")
    // An entry that wrapped to 0 would read as uninitialized and init again.
    assert(smp.stats.initCount == 1)
    val rng = new SplittableRandom(4)
    for (start <- Seq(0, 1, leaves)) {
      val w = UniNet.runWalk(g, m, smp, start, 20, rng)
      assert(w.length == 21, s"start $start")
      w.sliding(2).foreach(p => assert(g.hasEdge(p(0), p(1)), s"start $start: ${p.toSeq}"))
    }
  }

  test("LAST_x bytes are the allocated array's, at most 4 bytes per state") {
    val g = TestGraphs.mediumGraph(numTypes = 3)
    val models = Seq(new DeepWalk, new Node2Vec(0.5, 2.0), new MetaPath2Vec(Array(0, 1, 2)),
                     Edge2Vec(0.5, 2.0), new FairWalk(0.5, 2.0))
    for (m <- models) {
      val smp = make(g, m)
      val array = smp.slots.array
      val header = SizeEstimator.estimate(
        java.lang.reflect.Array.newInstance(array.getClass.getComponentType, 0))
      // SizeEstimator rounds each object up to a multiple of 8 bytes.
      val slack = SizeEstimator.estimate(array) - header - smp.stats.localBytes
      assert(slack >= 0 && slack < 8, s"${m.name}: ${smp.stats.localBytes} B, slack $slack")
      assert(smp.stats.localBytes <= 4L * m.numStates(g), m.name)
    }
  }

  test("isolated nodes return -1") {
    val iso = repro.graph.CSRGraph.fromUndirectedEdges(3, Array(0), Array(1), Array(1f))
    assert(make(iso, new DeepWalk).sample(WalkState(-1, 2, 0), new SplittableRandom(1)) == -1)
  }

  test("one lazy initialization per state; LAST_x memory grows accordingly") {
    val g = TestGraphs.trianglePendant
    val m = new Node2Vec(1, 1)
    val smp = make(g, m)
    val rng = new SplittableRandom(5)
    smp.sample(TestGraphs.arrived(g, m, 1, 0), rng)
    smp.sample(TestGraphs.arrived(g, m, 1, 0), rng)
    smp.sample(TestGraphs.arrived(g, m, 2, 0), rng)
    assert(smp.stats.initCount == 2) // two distinct states touched
    // A fresh factory's first sampler allocates the whole flat LAST_x
    // array, 2 bytes per slot.
    assert(smp.stats.localBytes == 2L * m.numSlots(g))
    smp.sample(TestGraphs.arrived(g, m, 0, 1), rng)
    assert(smp.stats.localBytes == 2L * m.numSlots(g))
  }

  test("samplers of one factory share LAST_x only for the same graph and model") {
    val g = TestGraphs.trianglePendant
    val f = new MHSamplerFactory(RandomInit)
    val rng = new SplittableRandom(5)
    val a = f.create(g, new DeepWalk).asInstanceOf[MHSampler]
    assert(a.stats.localBytes == 2L * g.numNodes)
    assert(a.sample(WalkState(-1, 0, 0), rng) >= 0)
    // Every task deserializes its own model; an equal one shares the chains.
    val b = f.create(g, new DeepWalk).asInstanceOf[MHSampler]
    assert(b.slots eq a.slots)
    assert(b.stats.localBytes == 0L)
    assert(b.sample(WalkState(-1, 0, 0), rng) >= 0)
    assert(a.stats.initCount + b.stats.initCount == 1)
    // Another model or graph gets a fresh array, all slots uninitialized.
    val others = Seq((g, new Node2Vec(1, 1)), (TestGraphs.starWithWeights(Seq(1, 5, 2)), new DeepWalk))
    for ((g2, m2) <- others) {
      val c = f.create(g2, m2).asInstanceOf[MHSampler]
      assert(!(c.slots eq a.slots), m2.name)
      assert(c.stats.localBytes == 2L * m2.numSlots(g2), m2.name)
      assert((0 until c.slots.length).forall(c.slots(_) == ChainStore.Uninit), m2.name)
    }
  }

  test("walkers on four threads share chains: valid edges, one init per state") {
    val g = TestGraphs.mediumGraph(n = 60, mult = 3)
    val m = new Node2Vec(0.25, 4.0)
    // Second-order states (prev, cur) of a few nodes, every walker in the
    // same order, so first touches collide.
    val states =
      for (v <- 0 until 8; j <- 0 until g.degree(v)) yield TestGraphs.arrived(g, m, g.dst(g.offset(v) + j), v)
    val threads = 4
    val pool = Executors.newFixedThreadPool(threads)
    try {
      for (round <- 0 until 50) {
        val f = new MHSamplerFactory(HighWeightInit())
        val barrier = new CyclicBarrier(threads)
        val tasks = (0 until threads).map { t =>
          pool.submit(new Callable[(Seq[WalkState], Long)] { def call() = {
            val smp = f.create(g, m)
            val rng = new SplittableRandom(round * threads + t)
            barrier.await()
            val bad = (0 until 20).flatMap(_ => states).filter { s =>
              val e = smp.sample(s, rng)
              e < g.offset(s.cur) || e >= g.offset(s.cur) + g.degree(s.cur) ||
                m.calculateWeight(g, s, e) <= 0
            }
            (bad, smp.stats.initCount)
          }})
        }
        val results = tasks.map(_.get())
        assert(results.flatMap(_._1).isEmpty, s"round $round: invalid edges")
        assert(results.map(_._2).sum == states.size, s"round $round: init count")
      }
    } finally pool.shutdownNow()
  }

  test("acceptance is perfect for uniform targets, partial for skewed ones") {
    val uni = TestGraphs.starWithWeights(Seq(2, 2, 2, 2))
    val smpU = make(uni, new DeepWalk)
    TestGraphs.empiricalDistribution(uni, smpU, WalkState(-1, 0, 0), 50_000)
    assert(smpU.stats.accepts == smpU.stats.trials)

    val skew = TestGraphs.starWithWeights(Seq(10, 1, 1, 1))
    val smpS = make(skew, new DeepWalk)
    TestGraphs.empiricalDistribution(skew, smpS, WalkState(-1, 0, 0), 50_000)
    assert(smpS.stats.accepts < smpS.stats.trials)
  }

  test("rejected candidates repeat LAST_x (heavy self-transition under skew)") {
    val g = TestGraphs.starWithWeights(Seq(1000, 1, 1, 1))
    val smp = make(g, new DeepWalk)
    val rng = new SplittableRandom(11)
    val s = WalkState(-1, 0, 0)
    val draws = (0 until 10_000).map(_ => smp.sample(s, rng))
    val heavy = g.offset(0) + 0 // slot of weight-1000 leaf (sorted dst: node 1)
    assert(draws.count(_ == heavy) > 9_000)
  }

  test("same seed, same draws (determinism)") {
    val g = TestGraphs.mediumGraph()
    val m = new Node2Vec(0.5, 2.0)
    def run(): Seq[Int] = {
      val smp = make(g, m)
      val rng = new SplittableRandom(77)
      val s = TestGraphs.arrived(g, m, g.dst(g.offset(3)), 3)
      (0 until 1000).map(_ => smp.sample(s, rng))
    }
    assert(run() == run())
  }

  test("factory memory formula is 4 bytes per state") {
    // The formula decides the paper-scale OOM cells; at this graph's scale
    // the one LAST_x array is the walk job's localBytes, so nothing is shared.
    val g = TestGraphs.trianglePendant
    val f = new MHSamplerFactory(RandomInit)
    assert(f.memoryBytes(g, new DeepWalk) == 0L)
    assert(f.memoryBytes(g, new Node2Vec(1, 1)) == 0L)
    val cfg = GraphGen.datasets("Flickr")
    assert(f.paperBytes(cfg, secondOrder = false, MemoryModel.PaperServerBytes) == 4L * cfg.paperNodes)
    assert(f.paperBytes(cfg, secondOrder = true, MemoryModel.PaperServerBytes) == 4L * cfg.paperEdges)
  }

  test("Lemma 1: pi_max >= 1/n for random distributions") {
    val gen = Gen.nonEmptyListOf(Gen.choose(0.01, 10.0))
    forAllSamples(gen, n = 60) { ws =>
      val z = ws.sum
      assert(Theory.lemma1Holds(ws.map(_ / z)))
    }
  }

  test("Theorem 2: a = 1/(n * pi_max) lies in (0, 1] and satisfies the premise") {
    val gen = Gen.nonEmptyListOf(Gen.choose(0.01, 10.0)).suchThat(_.size >= 2)
    forAllSamples(gen, n = 60) { ws =>
      val z = ws.sum
      val pi = ws.map(_ / z)
      val a = Theory.theorem2Coefficient(pi)
      assert(a > 0 && a <= 1.0 + 1e-12)
      assert(Theory.theorem2PremiseHolds(pi))
    }
  }
}
