package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.{CSRGraph, DatasetConfig}

/** Memory-aware edge sampler (Shao et al., SIGMOD'20 [32]): assign the
  * O(1)-per-draw alias method to as many states as a byte budget allows,
  * and fall back to the O(deg) direct sampler everywhere else.
  *
  * The assignment is the greedy cost/benefit heuristic of the original
  * framework: states of high-degree nodes are aliased first — they are
  * both the most expensive to direct-sample (cost ∝ deg) and, under a
  * stationary random walk, the most frequently visited. Alias tables for
  * assigned states are built lazily on first visit (and their bytes
  * counted), so the sampler works within the budget by construction —
  * which is exactly why it survives Web-UK in Tables VI/VII while being
  * slower than the O(1) samplers when the budget falls short.
  *
  * The lazy tables live in each partition's sampler, so `budgetBytes`
  * bounds the alias bytes of one walk task, not of the whole job. With an
  * unbounded budget it is the lazy form of [[AliasSamplerFactory]].
  */
final class MemoryAwareSamplerFactory(val budgetBytes: Long) extends SamplerFactory {
  override def name = s"memory-aware(${budgetBytes / (1L << 20)}MB)"

  // aliasEnabled(v): true when node v's states are assigned the alias method.
  private var aliasEnabled: Array[Boolean] = _
  private var assigned: Long = 0L

  /** Alias bytes of every state the last `prepare` assigned the alias
    * method: the most one walk task's lazy tables can take.
    */
  def assignedBytes: Long = assigned

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
    aliasEnabled = new Array[Boolean](g.numNodes)
    val order = Array.tabulate(g.numNodes)(identity).sortBy(v => -g.degree(v))
    var i = 0
    var used = 0L
    while (i < order.length) {
      val v = order(i)
      val cost = AliasMethod.tableBytes(g.degree(v)) * model.bucketSize(g, v)
      if (used + cost <= budgetBytes) { aliasEnabled(v) = true; used += cost }
      i += 1
    }
    assigned = used
  }

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(aliasEnabled != null, "memory-aware: prepare() must run before create()")
    new MemoryAwareSampler(g, model, aliasEnabled)
  }

  /** Zero: `prepare` builds no table, and each walk task's sampler charges
    * the tables it builds to its `localBytes`, which measures them.
    */
  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = 0L

  /** Assigns within whatever budget remains after the graph. */
  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long =
    math.max(0L, math.min(freeBytes, MemoryModel.paperAliasBytes(cfg, secondOrder)))
}

final class MemoryAwareSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    aliasEnabled: Array[Boolean],
) extends EdgeSampler(g) {
  // rows(v)(affixture): the table of each visited aliased state, built on
  // first visit; a state with no permitted edge keeps NoEdge and no bytes.
  private val rows = new Array[Array[AliasTable]](g.numNodes)
  private val NoEdge = new AliasTable(Array.emptyDoubleArray, Array.emptyIntArray)

  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    val v = s.cur
    if (!aliasEnabled(v)) {
      stats.trials += d
      return SamplerUtil.directDraw(g, model, s, rng)
    }
    stats.trials += 1
    var row = rows(v)
    if (row == null) { row = new Array[AliasTable](model.bucketSize(g, v)); rows(v) = row }
    val a = model.affixture(g, s)
    var t = row(a)
    if (t == null) {
      val t0 = System.nanoTime()
      t = AliasMethod.build(SamplerUtil.dynamicWeights(g, model, s))
      stats.initNanos += System.nanoTime() - t0
      stats.initCount += 1
      if (t == null) t = NoEdge
      else stats.localBytes += AliasMethod.tableBytes(d)
      row(a) = t
    }
    if (t eq NoEdge) -1 else g.offset(v) + t.draw(rng)
  }
}
