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
  * Every state table is built eagerly in `prepare`, as the reference
  * implementation does (this *is* the huge Ti of the node2vec baselines
  * in Table VI). Lazily built tables under a byte budget are the
  * memory-aware sampler's ([[MemoryAwareSamplerFactory]]).
  */
final class AliasSamplerFactory extends SamplerFactory {
  override def name: String = "alias(precompute)"

  // Shared immutable tables, indexed by `model.slot`; null for a state
  // with no permitted edge.
  private var tables: Array[AliasTable] = _
  private var builtBytes = 0L

  override def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = {
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

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    require(tables != null, s"$name: prepare() must run before create()")
    new AliasSampler(g, model, tables)
  }

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = builtBytes

  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long =
    MemoryModel.paperAliasBytes(cfg, secondOrder)
}

final class AliasSampler(g: CSRGraph, model: RandomWalkModel, tables: Array[AliasTable])
    extends EdgeSampler(g) {
  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    stats.trials += 1
    val t = tables(model.slot(g, s))
    if (t == null) -1 // every dynamic weight is 0 under this state
    else g.offset(s.cur) + t.draw(rng)
  }
}
