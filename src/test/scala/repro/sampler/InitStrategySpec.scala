package repro.sampler

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.core.WalkState
import repro.graph.CSRGraph
import repro.model.{DeepWalk, Node2Vec}

/** Initialization strategies (§III-C): the Fig. 1 simulation comparing
  * random vs high-weight initialization against Theorem 3's condition,
  * plus direct behavioral checks of each strategy.
  */
class InitStrategySpec extends AnyFunSuite {

  /** Build the paper's simulation target: n outcomes, t at piMax, the
    * rest at piMin, with piMax/piMin = `ratio` — realized as edge weights
    * of a star so the deepwalk sampler targets exactly this distribution.
    */
  private def simTarget(n: Int, t: Int, ratio: Double): (repro.graph.CSRGraph, Array[Double]) = {
    val ws = Array.tabulate(n)(i => if (i < t) ratio else 1.0)
    val g = TestGraphs.starWithWeights(ws.toIndexedSeq)
    val z = ws.sum
    (g, ws.map(_ / z))
  }

  /** Average KL(target || empirical) over `chains` fresh samplers, each
    * drawing 5n samples — the paper's Fig. 1 protocol.
    */
  private def avgKL(n: Int, t: Int, ratio: Double, init: InitStrategy,
                    chains: Int = 120, seed: Long = 31L): Double = {
    val (g, target) = simTarget(n, t, ratio)
    val m = new DeepWalk
    val s = m.initialState(g, 0)
    val draws = 5 * n
    (0 until chains).map { c =>
      val smp = new MHSamplerFactory(init).create(g, m)
      val emp = TestGraphs.empiricalDistribution(g, smp, s, draws, seed = seed + c)
      TestGraphs.kl(target, emp)
    }.sum / chains
  }

  test("Fig. 1 regime: skewed target (ratio > n/t) favors high-weight init") {
    // n=100, t=20 -> n/t = 5; ratio 25 is well past the crossover.
    val klR = avgKL(100, 20, 25.0, RandomInit)
    val klH = avgKL(100, 20, 25.0, HighWeightInit(sampleSize = 100))
    assert(Theory.highWeightBetter(100, 20, 25.0 / (20 * 25 + 80), 1.0 / (20 * 25 + 80)))
    assert(klR / klH > 1.0, s"KL_r=$klR KL_h=$klH")
  }

  test("Fig. 1 regime: mild skew (ratio < n/t) does not favor high-weight init") {
    // n=100, t=20, ratio=2: Theorem 3's condition fails.
    val piMax = 2.0 / (20 * 2 + 80)
    val piMin = 1.0 / (20 * 2 + 80)
    assert(!Theory.highWeightBetter(100, 20, piMax, piMin))
    val klR = avgKL(100, 20, 2.0, RandomInit)
    val klH = avgKL(100, 20, 2.0, HighWeightInit(sampleSize = 100))
    // Random should be at least competitive (ratio around or below 1).
    assert(klR / klH < 1.15, s"KL_r=$klR KL_h=$klH")
  }

  test("Theorem 3 condition agrees with the kappa comparison it derives from") {
    for {
      n <- Seq(50, 200); t <- Seq(5, 20); ratio <- Seq(1.5, 5.0, 40.0)
    } {
      val z = t * ratio + (n - t)
      val piMax = ratio / z; val piMin = 1.0 / z
      val byCondition = Theory.highWeightBetter(n, t, piMax, piMin)
      val byKappa = Theory.kappaHighWeight(piMax, t) < Theory.kappaRandom(n, piMax, piMin)
      assert(byCondition == byKappa, s"n=$n t=$t ratio=$ratio")
    }
  }

  test("high-weight init with exact scan starts the chain at the max-weight edge") {
    val g = TestGraphs.starWithWeights(Seq(1, 1, 50, 1)) // max at slot 2 (node 3)
    val m = new DeepWalk
    val s = m.initialState(g, 0)
    // First draw: chain initialized at max edge; candidate replaces it only
    // with prob w_cand/w_max — so across fresh samplers the first draw is
    // the max edge in ~ (1 - E[w/wmax]) + 1/deg cases: overwhelmingly.
    val maxEdge = g.offset(0) + 2
    val hits = (0 until 500).count { i =>
      val smp = new MHSamplerFactory(HighWeightInit()).create(g, m)
      smp.sample(s, new SplittableRandom(1000 + i)) == maxEdge
    }
    assert(hits > 450, s"hits=$hits")
    // Random init lands elsewhere much more often.
    val hitsRand = (0 until 500).count { i =>
      val smp = new MHSamplerFactory(RandomInit).create(g, m)
      smp.sample(s, new SplittableRandom(1000 + i)) == maxEdge
    }
    assert(hitsRand < hits)
  }

  test("burn-in init performs the configured number of discarded iterations") {
    val g = TestGraphs.starWithWeights(Seq(1, 10, 1, 1))
    val m = new DeepWalk
    val smp = new MHSamplerFactory(BurnInInit(200)).create(g, m).asInstanceOf[MHSampler]
    val t0 = smp.stats.initNanos
    smp.sample(m.initialState(g, 0), new SplittableRandom(9))
    assert(smp.stats.initCount == 1)
    assert(smp.stats.initNanos > t0) // init work happened and was attributed
  }

  test("burn-in starts the chain near the stationary distribution") {
    // With 100 burn-in steps the *first* emitted sample is already ~target.
    val g = TestGraphs.starWithWeights(Seq(8, 1, 1, 1, 1))
    val m = new DeepWalk
    val s = m.initialState(g, 0)
    val heavy = g.offset(0)
    val hits = (0 until 2000).count { i =>
      val smp = new MHSamplerFactory(BurnInInit(100)).create(g, m)
      smp.sample(s, new SplittableRandom(7000 + i)) == heavy
    }
    // Target mass of the heavy edge is 8/12 = 0.667.
    assert(math.abs(hits / 2000.0 - 8.0 / 12.0) < 0.05, s"hits=$hits")
  }

  test("all strategies initialize only permitted (w' > 0) edges") {
    val g = TestGraphs.typedGraph
    val m = new repro.model.MetaPath2Vec(Array(0, 1, 2))
    val s = WalkState(-1, 0, 0) // only type-1 neighbors (1, 4) permitted
    for (init <- Seq(RandomInit, HighWeightInit(2), BurnInInit(20))) {
      (0 until 200).foreach { i =>
        val smp = new MHSamplerFactory(init).create(g, m)
        val e = smp.sample(s, new SplittableRandom(40 + i))
        assert(e >= 0 && g.nodeType(g.dst(e)) == 1, s"init=$init")
      }
    }
  }

  /** High-weight init as a loop that draws each probe and weighs it in
    * turn; the sampler draws all probes first and must match it.
    */
  private def interleavedHighWeight(g: CSRGraph, m: Node2Vec, k: Int, s: WalkState,
                                    rng: SplittableRandom): Int = {
    val lo = g.offset(s.cur); val d = g.degree(s.cur)
    val exact = d <= k
    var best = -1; var bestW = 0.0
    var j = 0
    while (j < math.min(d, k)) {
      val e = lo + (if (exact) j else rng.nextInt(d))
      val w = m.calculateWeight(g, s, e)
      if (w > bestW) { bestW = w; best = e }
      j += 1
    }
    best
  }

  test("high-weight init: drawing the probes first picks the same edge and leaves the same RNG") {
    val g = TestGraphs.mediumGraph()
    val m = new Node2Vec(0.25, 4.0)
    val maxDeg = (0 until g.numNodes).map(g.degree).max
    assert(maxDeg > 16, "the graph needs hub states with more neighbours than probes")
    // Every second-order state: the prev-less one of each node, then one per in-edge.
    val states = (0 until g.numNodes).flatMap { v =>
      m.initialState(g, v) +: (0 until g.degree(v)).map(j => TestGraphs.arrived(g, m, g.dst(g.offset(v) + j), v))
    }
    for (k <- Seq(1, 16, maxDeg + 1)) {
      val smp = new MHSamplerFactory(HighWeightInit(k)).create(g, m).asInstanceOf[MHSampler]
      var probed = 0
      for (s <- states; seed <- 0L until 4L) {
        val rngA = new SplittableRandom(seed * 7919 + s.cur)
        val rngB = new SplittableRandom(seed * 7919 + s.cur)
        val want = interleavedHighWeight(g, m, k, s, rngB)
        assert(want >= 0) // every node2vec weight here is > 0, so no fallback
        assert(smp.initialEdge(s, rngA) == want, s"k=$k state=$s seed=$seed")
        assert(rngA.nextLong() == rngB.nextLong(), s"RNG diverged: k=$k state=$s seed=$seed")
        if (g.degree(s.cur) > k) probed += 1
      }
      if (k <= maxDeg) assert(probed > 0, s"k=$k: no state with d > k")
      else assert(probed == 0)
    }
  }
}
