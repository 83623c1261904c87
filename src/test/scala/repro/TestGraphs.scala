package repro

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph
import repro.sampler.EdgeSampler

/** Shared fixtures: hand-built graphs and distribution-comparison helpers
  * used across the sampler / model / engine suites.
  */
object TestGraphs {

  /** Small hand-built graph: edges as (u, v, w). */
  def fromTriples(numNodes: Int, edges: Seq[(Int, Int, Double)],
                  types: Array[Byte] = null, numTypes: Int = 1): CSRGraph =
    CSRGraph.fromUndirectedEdges(
      numNodes,
      edges.map(_._1).toArray, edges.map(_._2).toArray, edges.map(_._3.toFloat).toArray,
      types, numTypes)

  /** Weighted triangle plus a pendant: 0-1-2 triangle, 3 hangs off 0.
    * Degrees: deg(0)=3, deg(1)=2, deg(2)=2, deg(3)=1.
    */
  def trianglePendant: CSRGraph = fromTriples(4, Seq(
    (0, 1, 1.0), (0, 2, 2.0), (1, 2, 4.0), (0, 3, 0.5)))

  /** Star: center 0 with `n` leaves, weights = leaf index (1-based). */
  def weightedStar(n: Int): CSRGraph =
    fromTriples(n + 1, (1 to n).map(i => (0, i, i.toDouble)))

  /** Star with explicit leaf weights. */
  def starWithWeights(ws: Seq[Double]): CSRGraph =
    fromTriples(ws.size + 1, ws.zipWithIndex.map { case (w, i) => (0, i + 1, w) })

  /** Small typed graph: 6 nodes, types 0,1,2 cycling; near-clique. */
  def typedGraph: CSRGraph = {
    val types = Array[Byte](0, 1, 2, 0, 1, 2)
    fromTriples(6, Seq(
      (0, 1, 1.0), (0, 2, 1.0), (0, 3, 2.0), (0, 4, 1.0), (0, 5, 1.0),
      (1, 2, 1.0), (1, 3, 1.0), (1, 4, 2.0),
      (2, 3, 1.0), (2, 5, 1.0),
      (3, 4, 1.0), (4, 5, 1.0)), types, 3)
  }

  /** Deterministic small power-law-ish graph for statistical tests; with
    * `numTypes` > 1, node v has type v % numTypes.
    */
  def mediumGraph(n: Int = 200, mult: Int = 4, seed: Long = 5, numTypes: Int = 1): CSRGraph = {
    val rng = new SplittableRandom(seed)
    val edges = scala.collection.mutable.LinkedHashSet[(Int, Int)]()
    // Ring for connectivity, plus preferential-ish random chords.
    for (v <- 0 until n) edges += ((math.min(v, (v + 1) % n), math.max(v, (v + 1) % n)))
    for (_ <- 0 until n * mult) {
      val a = rng.nextInt(n)
      val b = rng.nextInt(math.max(1, rng.nextInt(n))) // skewed toward low ids
      if (a != b) edges += ((math.min(a, b), math.max(a, b)))
    }
    val es = edges.toSeq.map { case (u, v) => (u, v, 0.5 + ((u * 31 + v * 17) % 100) / 100.0) }
    if (numTypes == 1) fromTriples(n, es)
    else fromTriples(n, es, Array.tabulate(n)(v => (v % numTypes).toByte), numTypes)
  }

  /** Normalized target transition distribution of state `s` under `model`:
    * index j -> probability of neighbor slot j of s.cur.
    */
  def targetDistribution(g: CSRGraph, model: RandomWalkModel, s: WalkState): Array[Double] = {
    val lo = g.offset(s.cur); val d = g.degree(s.cur)
    val w = Array.tabulate(d)(j => model.calculateWeight(g, s, lo + j))
    val sum = w.sum
    require(sum > 0, "state admits no edge")
    w.map(_ / sum)
  }

  /** Empirical slot distribution over `draws` calls of `sampler.sample(s)`.
    * For M-H samplers consecutive draws are the chain itself; the empirical
    * frequency still converges to the stationary distribution.
    */
  def empiricalDistribution(g: CSRGraph, sampler: EdgeSampler, s: WalkState,
                            draws: Int, seed: Long = 99L): Array[Double] = {
    val rng = new SplittableRandom(seed)
    val counts = new Array[Long](g.degree(s.cur))
    val lo = g.offset(s.cur)
    var i = 0
    while (i < draws) {
      val e = sampler.sample(s, rng)
      require(e >= 0, "sampler returned -1 for a live state")
      counts(e - lo) += 1
      i += 1
    }
    counts.map(_.toDouble / draws)
  }

  /** L1 distance between two distributions. */
  def l1(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length)
    a.indices.map(i => math.abs(a(i) - b(i))).sum
  }

  /** KL(p || q) with epsilon smoothing for empty empirical bins. */
  def kl(p: Array[Double], q: Array[Double], eps: Double = 1e-9): Double =
    p.indices.map { i =>
      val pi = math.max(p(i), eps); val qi = math.max(q(i), eps)
      pi * math.log(pi / qi)
    }.sum
}
