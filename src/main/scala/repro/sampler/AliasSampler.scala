package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.{CSRGraph, DatasetConfig}

/** Alias edge sampler [34]: O(1) draws from one precomputed table per
  * *state*. For first-order models that is one table per node (O(|E|)
  * entries total); for second-order models it is one table per directed
  * edge over the destination's neighborhood — the O(d * #state) memory
  * blow-up that makes the reference node2vec implementation (and
  * UniNet(Orig)) explode on large networks (Challenge 1).
  *
  * Under a finite `budgetBytes` it is the memory-aware sampler (Shao et
  * al., SIGMOD'20 [32]): `prepare` assigns the alias method to nodes in
  * descending degree order, each charged the tables of all its states,
  * while the budget allows, and every other node samples directly in
  * O(deg). High-degree nodes go first: they are both the most expensive
  * to direct-sample and, under a stationary random walk, the most
  * frequently visited. So it fits any budget by construction, and is
  * slower than the O(1) samplers once the budget falls short (Tables
  * VI/VII). The default, unbounded budget assigns every node.
  *
  * Every assigned state's table is built eagerly in `prepare`, as the
  * reference implementation does (this *is* the huge Ti of the node2vec
  * baselines in Table VI). The tables travel in the factory broadcast
  * that every walk task shares, so the budget bounds the whole job.
  */
final class AliasSamplerFactory(val budgetBytes: Long = Long.MaxValue) extends SamplerFactory {
  override def name: String =
    if (budgetBytes == Long.MaxValue) "alias(precompute)"
    else s"memory-aware(${budgetBytes / (1L << 20)}MB)"

  // assigned(v): node v's states draw from alias tables, not directly.
  private var assigned: Array[Boolean] = _
  // Shared immutable tables, indexed by `model.slot`; null for a state
  // of an unassigned node or with no permitted edge.
  private var tables: Array[AliasTable] = _
  private var builtBytes = 0L

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
    val enabled = new Array[Boolean](g.numNodes)
    val order = Array.tabulate(g.numNodes)(identity).sortBy(v => -g.degree(v))
    var used = 0L
    for (v <- order) {
      val cost = AliasMethod.tableBytes(g.degree(v)) * model.bucketSize(g, v)
      if (used + cost <= budgetBytes) { enabled(v) = true; used += cost }
    }
    val built = new Array[AliasTable](model.numSlots(g))
    SamplerUtil.forEachNode(g.numNodes, parallel) { v =>
      if (enabled(v)) {
        var a = 0
        while (a < model.bucketSize(g, v)) {
          val s = model.stateFor(g, v, a)
          built(model.slot(g, s)) = AliasMethod.build(SamplerUtil.dynamicWeights(g, model, s))
          a += 1
        }
      }
    }
    // A state with no permitted edge keeps a null table and no bytes.
    builtBytes = built.iterator.filter(_ != null).map(t => AliasMethod.tableBytes(t.size)).sum
    assigned = enabled
    tables = built
  }

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(tables != null, s"$name: prepare() must run before create()")
    new AliasSampler(g, model, assigned, tables)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = builtBytes

  /** A finite budget assigns within whatever memory remains after the graph. */
  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long = {
    val need = MemoryModel.paperAliasBytes(cfg, secondOrder)
    if (budgetBytes == Long.MaxValue) need else math.max(0L, math.min(freeBytes, need))
  }
}

final class AliasSampler(g: CSRGraph, model: RandomWalkModel, assigned: Array[Boolean],
                         tables: Array[AliasTable]) extends EdgeSampler(g) {
  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    if (!assigned(s.cur)) {
      stats.trials += d // O(deg) weight evaluations, as the direct sampler
      return SamplerUtil.directDraw(g, model, s, rng)
    }
    stats.trials += 1
    val t = tables(model.slot(g, s))
    if (t == null) -1 // every dynamic weight is 0 under this state
    else g.offset(s.cur) + t.draw(rng)
  }
}
