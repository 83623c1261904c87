package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.{CSRGraph, DatasetConfig}

/** Direct edge sampler [21]: O(1) memory, O(deg) time per draw — compute
  * every dynamic weight of the current neighborhood, then inverse-CDF
  * sample. This is what the open-sourced deepwalk / metapath2vec /
  * edge2vec / fairwalk implementations effectively do per step, and it is
  * the "Orig" sampling method for those four models in Table VI.
  */
object DirectSamplerFactory extends SamplerFactory {
  override val name = "direct"

  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler =
    new DirectSampler(g, model)

  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = 0L

  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long = 0L
}

final class DirectSampler(g: CSRGraph, model: RandomWalkModel) extends EdgeSampler(g) {
  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    stats.trials += d // O(deg) weight evaluations per draw
    SamplerUtil.directDraw(g, model, s, rng)
  }
}
