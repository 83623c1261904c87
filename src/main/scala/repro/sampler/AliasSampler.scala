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
  * baselines in Table VI), into one [[AliasStore]] with a table per slot.
  * The budget pays for the store's offsets first. The store travels in
  * the factory broadcast that every walk task shares, so the budget
  * bounds the whole job.
  */
final class AliasSamplerFactory(val budgetBytes: Long = Long.MaxValue) extends SamplerFactory {
  override def name: String =
    if (budgetBytes == Long.MaxValue) "alias(precompute)"
    else s"memory-aware(${budgetBytes / (1L << 20)}MB)"

  // assigned(v): node v's states draw from alias tables, not directly.
  private var assigned: Array[Boolean] = _
  // One table per `model.slot`, empty for a state of an unassigned node
  // or with no permitted edge; null when the budget assigns no node.
  private[sampler] var store: AliasStore = _

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
    val enabled = new Array[Boolean](g.numNodes)
    val order = Array.tabulate(g.numNodes)(identity).sortBy(v => -g.degree(v))
    val entryBytes = AliasStore.entryBytes(wide = !IndexArray.charsHold(g))
    var used = AliasStore.bytes(model.numSlots(g), 0L, wide = false) // the offsets, whichever nodes are assigned
    for (v <- order) {
      val cost = entryBytes * g.degree(v) * model.bucketSize(g, v)
      if (used + cost <= budgetBytes) { enabled(v) = true; used += cost }
    }
    assigned = enabled
    store = if (enabled.contains(true)) AliasSamplerFactory.tables(g, model, enabled, parallel) else null
  }

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(assigned != null, s"$name: prepare() must run before create()")
    new AliasSampler(g, model, assigned, store)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long =
    if (store == null) 0L else store.bytes

  /** A finite budget assigns within whatever memory remains after the graph. */
  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long = {
    val need = MemoryModel.paperAliasBytes(cfg, secondOrder)
    if (budgetBytes == Long.MaxValue) need else math.max(0L, math.min(freeBytes, need))
  }
}

object AliasSamplerFactory {
  /** One [[AliasStore]] table per `model.slot`, over the state's dynamic
    * weights, for every state of the nodes in `assigned`; the other
    * slots, and states with no permitted edge, get empty tables.
    */
  def tables(g: CSRGraph, model: RandomWalkModel, assigned: Array[Boolean], parallel: Boolean): AliasStore = {
    def forEachState(body: (WalkState, Int) => Unit): Unit =
      SamplerUtil.forEachNode(g.numNodes, parallel) { v =>
        if (assigned(v)) for (a <- 0 until model.bucketSize(g, v)) {
          val s = model.stateFor(g, v, a)
          body(s, model.slot(g, s))
        }
      }
    val sizes = new Array[Int](model.numSlots(g))
    forEachState { (s, slot) =>
      val lo = g.offset(s.cur); val d = g.degree(s.cur)
      sizes(slot) = if ((lo until lo + d).exists(model.calculateWeight(g, s, _) > 0)) d else 0
    }
    val store = AliasStore(sizes, s"alias tables of ${model.name} on a graph of " +
                                  s"${g.numNodes} nodes and ${g.numDirectedEdges} directed edges")
    forEachState((s, slot) => if (store.size(slot) > 0) store.build(slot, SamplerUtil.dynamicWeights(g, model, s)))
    store
  }
}

final class AliasSampler(g: CSRGraph, model: RandomWalkModel, assigned: Array[Boolean],
                         store: AliasStore) extends EdgeSampler(g) {
  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    if (!assigned(s.cur)) {
      stats.trials += d // O(deg) weight evaluations, as the direct sampler
      return SamplerUtil.directDraw(g, model, s, rng)
    }
    stats.trials += 1
    val i = store.draw(model.slot(g, s), rng)
    if (i < 0) -1 // every dynamic weight is 0 under this state
    else g.offset(s.cur) + i
  }
}
