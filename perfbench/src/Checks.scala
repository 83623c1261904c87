package perfbench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** Deterministic hashing for seeded selections (SplitMix64 finalizer), so
  * a selection depends only on the seed and the item, never on order.
  */
object Mix {
  def apply(seed: Long, x: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + x
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform in [0, 1). */
  def unit(seed: Long, x: Long): Double = (apply(seed, x) >>> 11) * (1.0 / (1L << 53))
}

/** Corpus-level results of [[Checks.walks]]. */
final case class WalkCheck(walks: Long, failed: Long, tokens: Long, shortWalks: Long)

/** Output checks on a walk corpus, run on the cluster over the persisted
  * RDD.
  */
object Checks {

  /** Global index of edge u -> v, or -1 when it is not a CSR edge. */
  def edgeIndex(g: CSRGraph, u: Int, v: Int): Int = {
    if (u < 0 || u >= g.numNodes) return -1
    val i = g.neighborIndexOf(u, v)
    if (i < 0) -1 else g.offset(u) + i
  }

  /** Sum of w' over N(s.cur). */
  def weightSum(g: CSRGraph, model: RandomWalkModel, s: WalkState): Double = {
    var t = 0.0; var e = g.offset(s.cur); val hi = e + g.degree(s.cur)
    while (e < hi) { t += model.calculateWeight(g, s, e); e += 1 }
    t
  }

  /** True when `walk` is a valid walk from its first node: every hop is a
    * CSR edge with w' > 0 under the state rebuilt from the walk so far,
    * the length is at most walkLen + 1, and a shorter walk ends where the
    * sum of w' is 0.
    */
  def validWalk(g: CSRGraph, model: RandomWalkModel, walk: Array[Int], walkLen: Int): Boolean = {
    if (walk.length < 1 || walk.length > walkLen + 1 || walk(0) < 0 || walk(0) >= g.numNodes)
      return false
    var s = model.initialState(g, walk(0))
    var j = 1
    while (j < walk.length) {
      val e = edgeIndex(g, walk(j - 1), walk(j))
      if (e < 0 || !(model.calculateWeight(g, s, e) > 0)) return false
      s = model.updateState(g, s, e)
      j += 1
    }
    walk.length == walkLen + 1 || weightSum(g, model, s) == 0.0
  }

  /** Check every walk of the corpus. Each node must start exactly
    * `numWalks` valid walks; every walk short of that (invalid or lost)
    * and every extra walk counts as one failure.
    */
  def walks(corpus: RDD[Array[Int]], bcG: Broadcast[CSRGraph], model: RandomWalkModel,
            numWalks: Int, walkLen: Int): WalkCheck = {
    val n = bcG.value.numNodes
    val (count, starts, tokens, short) = corpus.mapPartitions { it =>
      val g = bcG.value
      val starts = new Array[Int](n)
      var c = 0L; var t = 0L; var s = 0L
      it.foreach { w =>
        c += 1; t += w.length
        if (w.length < walkLen + 1) s += 1
        if (validWalk(g, model, w, walkLen)) starts(w(0)) += 1
      }
      Iterator((c, starts, t, s))
    }.treeReduce { (x, y) =>
      var v = 0
      while (v < n) { x._2(v) += y._2(v); v += 1 }
      (x._1 + y._1, x._2, x._3 + y._3, x._4 + y._4)
    }
    val failed = starts.map(k => math.abs(numWalks - k).toLong).sum
    WalkCheck(count, failed, tokens, short)
  }

  /** Sampling fidelity on a seeded sample of corpus steps (one step in
    * `every`): |mean P(chosen) / mean sum_e P(e|s)^2 - 1|. An exact
    * sampler draws e with P(e|s), so both means agree in expectation.
    */
  def walkBias(corpus: RDD[Array[Int]], bcG: Broadcast[CSRGraph], model: RandomWalkModel,
               seed: Long, every: Int): Double = {
    val (pc, p2) = corpus.zipWithIndex().mapPartitions { it =>
      val g = bcG.value
      var pc = 0.0; var p2 = 0.0
      it.foreach { case (w, i) =>
        var s = model.initialState(g, w(0))
        var j = 1
        while (j < w.length) {
          val e = edgeIndex(g, w(j - 1), w(j))
          if (Mix(seed, i * 1000003L + j) % every == 0) {
            var t = 0.0; var sq = 0.0
            var f = g.offset(s.cur); val hi = f + g.degree(s.cur)
            while (f < hi) { val x = model.calculateWeight(g, s, f); t += x; sq += x * x; f += 1 }
            pc += model.calculateWeight(g, s, e) / t
            p2 += sq / (t * t)
          }
          s = model.updateState(g, s, e)
          j += 1
        }
      }
      Iterator((pc, p2))
    }.treeReduce((x, y) => (x._1 + y._1, x._2 + y._2))
    if (p2 == 0) 0.0 else math.abs(pc / p2 - 1)
  }

  /** Distinct sampler states (node, affixture) the corpus passed through
    * on a step that drew an edge.
    */
  def distinctStates(corpus: RDD[Array[Int]], bcG: Broadcast[CSRGraph], model: RandomWalkModel): Long =
    corpus.mapPartitions { it =>
      val g = bcG.value
      it.flatMap { w =>
        val keys = new Array[Long](w.length - 1)
        var s = model.initialState(g, w(0))
        var j = 1
        while (j < w.length) {
          keys(j - 1) = (s.cur.toLong << 32) | model.affixture(g, s)
          s = model.updateState(g, s, edgeIndex(g, w(j - 1), w(j)))
          j += 1
        }
        keys.iterator
      }
    }.distinct().count()
}

/** Held-out link prediction (node2vec's protocol): a seeded share of the
  * undirected edges is removed before the CSR build; each held-out edge
  * and an equal number of seeded non-edges are scored by the cosine of
  * their endpoint vectors, and the AUC is the chance a held-out edge
  * outranks a non-edge. Selection hashes the edge, so it does not depend
  * on the order the edge frame is collected in.
  */
final class Holdout(numNodes: Int, share: Double, seed: Long) {
  private def key(u: Int, v: Int): Long = math.min(u, v).toLong * numNodes + math.max(u, v)

  def held(u: Int, v: Int): Boolean = share > 0 && Mix.unit(seed, key(u, v)) < share

  private var positives: Array[(Int, Int)] = Array.empty
  private var negatives: Array[(Int, Int)] = Array.empty

  /** Fix the scored pairs from the full undirected edge list. */
  def choosePairs(us: Array[Int], vs: Array[Int]): Unit = {
    positives = us.indices.filter(i => held(us(i), vs(i))).map(i => (us(i), vs(i))).toArray
    val edges = new java.util.HashSet[Long](us.length * 2)
    us.indices.foreach(i => edges.add(key(us(i), vs(i))))
    val rng = new java.util.SplittableRandom(seed ^ 0x5DEECE66DL)
    val out = Array.newBuilder[(Int, Int)]
    var found = 0
    while (found < positives.length) {
      val u = rng.nextInt(numNodes); val v = rng.nextInt(numNodes)
      if (u != v && !edges.contains(key(u, v))) { out += ((u, v)); found += 1 }
    }
    negatives = out.result()
  }

  /** AUC of cosine scores; a pair with a missing vector scores 0. */
  def auc(vectors: Array[Array[Float]]): Double = {
    def cos(p: (Int, Int)): Double = {
      val a = vectors(p._1); val b = vectors(p._2)
      if (a == null || b == null) return 0.0
      var d = 0.0; var na = 0.0; var nb = 0.0; var k = 0
      while (k < a.length) { d += a(k) * b(k); na += a(k) * a(k); nb += b(k) * b(k); k += 1 }
      if (na == 0 || nb == 0) 0.0 else d / math.sqrt(na * nb)
    }
    // Mann-Whitney U with average ranks for ties.
    val scored = (positives.map(p => (cos(p), 1)) ++ negatives.map(p => (cos(p), 0))).sortBy(_._1)
    var rankSumPos = 0.0; var i = 0
    while (i < scored.length) {
      var j = i
      while (j + 1 < scored.length && scored(j + 1)._1 == scored(i)._1) j += 1
      val avgRank = (i + j) / 2.0 + 1
      var k = i
      while (k <= j) { if (scored(k)._2 == 1) rankSumPos += avgRank; k += 1 }
      i = j + 1
    }
    val np = positives.length.toDouble; val nn = negatives.length.toDouble
    if (np == 0 || nn == 0) 0.5 else (rankSumPos - np * (np + 1) / 2) / (np * nn)
  }
}
