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
  * `precomputeAll = true` reproduces that reference behavior: every state
  * table is built eagerly in `prepare` (this *is* the huge Ti of the
  * node2vec baselines in Table VI). `precomputeAll = false` builds tables
  * lazily per partition on first visit and caches them
  * ([[LazyAliasCache]]) — a fairer variant used by the memory-aware
  * comparison.
  */
final class AliasSamplerFactory(val precomputeAll: Boolean) extends SamplerFactory {
  override def name: String = if (precomputeAll) "alias(precompute)" else "alias(lazy)"

  // Shared immutable tables of precompute mode, indexed by `model.slot`;
  // null for a state with no permitted edge. Lazy mode allocates nothing.
  private var tables: Array[AliasTable] = _
  private var builtBytes = 0L

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
    if (precomputeAll) {
      val built = new Array[AliasTable](model.numSlots(g))
      SamplerUtil.forEachNode(g.numNodes, parallel) { v =>
        val base = model.slotBase(g, v)
        var a = 0
        while (a < model.bucketSize(g, v)) {
          built(base + a) = AliasMethod.build(
            SamplerUtil.dynamicWeights(g, model, model.stateFor(g, v, a)))
          a += 1
        }
      }
      // A state with no permitted edge keeps a null table and no bytes.
      builtBytes = built.iterator.filter(_ != null).map(t => AliasMethod.tableBytes(t.size)).sum
      tables = built
    }
  }

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(!precomputeAll || tables != null, s"$name: prepare() must run before create()")
    new AliasSampler(g, model, tables)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = builtBytes

  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long =
    MemoryModel.paperAliasBytes(cfg, secondOrder)
}

final class AliasSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    shared: Array[AliasTable], // null => lazy per-partition cache
) extends EdgeSampler {
  override val stats = new LocalStats
  private val cache = if (shared == null) new LazyAliasCache(g, model, stats) else null

  override def sample(s: WalkState, rng: SplittableRandom): Int = {
    val d = g.degree(s.cur)
    if (d == 0) return -1
    stats.steps += 1
    stats.trials += 1
    val t = if (shared != null) shared(model.slot(g, s)) else cache.table(s)
    if (t == null) -1 // every dynamic weight is 0 under this state
    else g.offset(s.cur) + t.draw(rng)
  }
}

/** Per-partition cache of dynamic alias tables, each built the first time
  * its state is visited: the lazy [[AliasSampler]] and the aliased states
  * of [[MemoryAwareSampler]]. Every build adds to `stats.initCount` and
  * `initNanos`, every kept table to `localBytes`. A state with no permitted
  * edge is built once, keeps no bytes, and answers null from then on.
  *
  * The cache belongs to one task's sampler, so its bytes — and with them
  * memory-aware's budget — are bounded per partition, not per job.
  */
final class LazyAliasCache(g: CSRGraph, model: RandomWalkModel, stats: LocalStats) {
  private val rows = new Array[Array[AliasTable]](g.numNodes)

  /** The alias table of state `s`, or null when it permits no edge. */
  def table(s: WalkState): AliasTable = {
    val v = s.cur
    var row = rows(v)
    if (row == null) { row = new Array[AliasTable](model.bucketSize(g, v)); rows(v) = row }
    val a = model.affixture(g, s)
    var t = row(a)
    if (t == null) {
      val t0 = System.nanoTime()
      t = AliasMethod.build(SamplerUtil.dynamicWeights(g, model, s))
      stats.initNanos += System.nanoTime() - t0
      stats.initCount += 1
      if (t == null) t = LazyAliasCache.NoEdge
      else stats.localBytes += AliasMethod.tableBytes(g.degree(v))
      row(a) = t
    }
    if (t eq LazyAliasCache.NoEdge) null else t
  }
}

private object LazyAliasCache {
  /** Marks a built state that permits no edge. */
  val NoEdge = new AliasTable(Array.emptyDoubleArray, Array.emptyIntArray)
}
