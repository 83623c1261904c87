package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.{CSRGraph, DatasetConfig}
import repro.model.DeepWalk

/** The static-weight proposal distribution of the rejection-style
  * samplers: one alias table per node over the *static* edge weights (the
  * alias sampler's deepwalk tables), plus per-node weight sums. This is
  * exactly the structure whose O(|E|) footprint makes rejection/KnightKing
  * OOM on Web-UK in the paper (§V-D) while M-H (uniform proposal, no
  * table) survives.
  */
final class StaticProposal(val tables: AliasStore, val weightSums: Array[Double]) extends Serializable {
  def bytes: Long = tables.bytes + 8L * weightSums.length
}

object StaticProposal {
  /** Static weights are deepwalk's dynamic weights (Eq. 1). */
  private val StaticWeights = new DeepWalk

  def build(g: CSRGraph, parallel: Boolean): StaticProposal = {
    val sums = new Array[Double](g.numNodes)
    SamplerUtil.forEachNode(g.numNodes, parallel) { v =>
      var e = g.offset(v)
      while (e < g.offset(v + 1)) { sums(v) += g.weight(e); e += 1 }
    }
    new StaticProposal(AliasSamplerFactory.tables(g, StaticWeights, Array.fill(g.numNodes)(true), parallel), sums)
  }
}

/** Rejection edge sampler [34], [35] over the static proposal: draw a
  * candidate, accept with probability bias/envelope. Expected O(envelope /
  * E[bias]) draws per sample — the parameter sensitivity Table II
  * measures. With `optimized = true` (name "knightking") it adds two of
  * KnightKing's algorithmic optimizations; with `optimized = false` (name
  * "rejection") it is plain rejection sampling with envelope `maxBias`:
  *
  *  - **outlier folding**: a state's single deterministic outlier edge
  *    (node2vec's 1/p return edge when 1/p dominates) is pulled out of the
  *    rejection area and sampled exactly from a two-part mixture, so the
  *    envelope shrinks from max(1/p, 1, 1/q) to max(1, 1/q);
  *  - **pre-acceptance**: when every edge's bias is known to be at least
  *    `minBias`, a uniform draw below minBias/envelope accepts without
  *    computing the dynamic weight at all.
  *
  * Models without a deterministic outlier (edge2vec, fairwalk — their
  * outliers depend on the heterogeneous layout) get no folding benefit,
  * reproducing the paper's §V-D/§V-E observations. The distributed-engine
  * side of KnightKing is out of scope: the paper itself benchmarks it in
  * standalone mode. In both settings a trial cap falls back to the direct
  * sampler so states whose acceptance region is tiny (or empty, e.g.
  * metapath mismatches) cannot spin forever.
  */
final class KnightKingSamplerFactory(val optimized: Boolean = true) extends SamplerFactory {
  override val name = if (optimized) "knightking" else "rejection"
  private[sampler] var proposal: StaticProposal = _

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit =
    proposal = StaticProposal.build(g, parallel)

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(proposal != null, s"$name: prepare() must run before create()")
    new KnightKingSampler(g, model, proposal, optimized)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long =
    if (proposal == null) 0L else proposal.bytes

  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long =
    AliasStore.bytes(cfg.paperNodes, cfg.paperEdges, wide = true) + 8L * cfg.paperNodes
}

final class KnightKingSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    proposal: StaticProposal,
    optimized: Boolean,
) extends EdgeSampler(g) {
  private final val MaxTrialsPerDeg = 8 // proposals per neighbor before a direct draw
  private val foldedEnvelope = model.foldedMaxBias
  private val plainEnvelope = model.maxBias

  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    val v = s.cur
    if (proposal.tables.size(v) == 0) return -1
    val lo = g.offset(v)

    val outlier = if (optimized) model.outlierEdge(g, s) else -1
    val envelope = if (outlier >= 0) foldedEnvelope else plainEnvelope
    // Mixture split: the outlier's weight above the folded envelope cap
    // forms its own always-accepted area. The split must be re-drawn on
    // every trial so rejections renormalize the whole mixture, keeping the
    // sampled distribution exact.
    var outlierProb = 0.0
    if (outlier >= 0) {
      val extra = model.calculateWeight(g, s, outlier) - envelope * g.weight(outlier)
      if (extra > 0) outlierProb = extra / (extra + envelope * proposal.weightSums(v))
    }

    val preThreshold = if (optimized) model.minBias / envelope else 0.0
    val cap = MaxTrialsPerDeg * d + 16
    var trial = 0
    while (trial < cap) {
      trial += 1
      stats.trials += 1
      if (outlierProb > 0 && rng.nextDouble() < outlierProb) {
        stats.accepts += 1
        return outlier
      }
      val e = lo + proposal.tables.draw(v, rng)
      // KnightKing draws the uniform before the weight so pre-acceptance
      // can skip it; plain rejection draws it only for a permitted edge.
      var r = if (optimized) rng.nextDouble() else 0.0
      if (r < preThreshold) {
        // pre-acceptance: bias >= minBias for every edge, skip the weight.
        stats.preAccepts += 1
        stats.accepts += 1
        return e
      }
      // In the folded area the outlier's contribution is capped at the
      // envelope (the surplus lives in the mixture's outlier area).
      val bias = math.min(model.bias(g, s, e), envelope)
      if (bias > 0) {
        if (!optimized) r = rng.nextDouble()
        if (r * envelope < bias) {
          stats.accepts += 1
          return e
        }
      }
    }
    stats.trials += d // the direct draw evaluates every weight of N(v)
    SamplerUtil.directDraw(g, model, s, rng)
  }
}
