package repro.sampler

import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicLong

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

  // Shared immutable tables, indexed [node][affixture]; null rows until built.
  private var tables: Array[Array[AliasTable]] = _
  private val builtBytes = new AtomicLong(0L)

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
    tables = new Array[Array[AliasTable]](g.numNodes)
    builtBytes.set(0L)
    if (precomputeAll) {
      SamplerUtil.forEachNode(g.numNodes, parallel) { v =>
        val bs = model.bucketSize(g, v)
        val row = new Array[AliasTable](bs)
        var built = 0
        var a = 0
        while (a < bs) {
          row(a) = AliasMethod.build(
            SamplerUtil.dynamicWeights(g, model, model.stateFor(g, v, a)))
          // A state with no permitted edge keeps a null table and no bytes.
          if (row(a) != null) built += 1
          a += 1
        }
        tables(v) = row
        builtBytes.addAndGet(AliasMethod.tableBytes(g.degree(v)) * built)
      }
    }
  }

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(tables != null, s"$name: prepare() must run before create()")
    new AliasSampler(g, model, if (precomputeAll) tables else null)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long =
    if (precomputeAll) builtBytes.get() else 0L

  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long =
    MemoryModel.paperAliasBytes(cfg, secondOrder)
}

final class AliasSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    shared: Array[Array[AliasTable]], // null => lazy per-partition cache
) extends EdgeSampler {
  override val stats = new LocalStats
  private val cache = if (shared == null) new LazyAliasCache(g, model, stats) else null

  override def sample(s: WalkState, rng: SplittableRandom): Int = {
    val d = g.degree(s.cur)
    if (d == 0) return -1
    stats.steps += 1
    stats.trials += 1
    val t = if (shared != null) shared(s.cur)(model.affixture(g, s)) else cache.table(s)
    if (t == null) -1 // every dynamic weight is 0 under this state
    else g.offset(s.cur) + t.draw(rng)
  }
}

/** Per-partition cache of dynamic alias tables, each built the first time
  * its state is visited: the lazy [[AliasSampler]] and the aliased states
  * of [[MemoryAwareSampler]]. Every build adds to `stats.initCount` and
  * `initNanos`, every kept table to `lazyBytes`. A state with no permitted
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
      else stats.lazyBytes += AliasMethod.tableBytes(g.degree(v))
      row(a) = t
    }
    if (t eq LazyAliasCache.NoEdge) null else t
  }
}

private object LazyAliasCache {
  /** Marks a built state that permits no edge. */
  val NoEdge = new AliasTable(Array.emptyDoubleArray, Array.emptyIntArray)
}
