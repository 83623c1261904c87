package perfbench

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, UniNet}
import repro.graph.CSRGraph
import repro.sampler.SamplerFactory

final case class KernelResult(mstepsPerS: Double, trialsPerStep: Double)

/** The per-step sampler loop alone: one thread, no Spark. Each round
  * creates a fresh sampler from the prepared factory and walks one walk
  * partition's share of seeded starts, as one task of the walk job does.
  * Two rounds warm the JIT; the median of the timed rounds is reported.
  */
object Kernel {
  val WarmRounds = 2
  val Rounds = 5

  def run(g: CSRGraph, model: RandomWalkModel, factory: SamplerFactory, w: Workload,
          seed: Long): KernelResult = {
    val walks = math.max(1, g.numNodes.toLong * w.numWalks / w.partitions).toInt
    val rates = (0 until WarmRounds + Rounds).map { r =>
      val sampler = factory.create(g, model)
      val rng = new SplittableRandom(seed + r)
      val t0 = System.nanoTime()
      var i = 0
      while (i < walks) {
        UniNet.runWalk(g, model, sampler, rng.nextInt(g.numNodes), w.walkLen, rng)
        i += 1
      }
      val s = (System.nanoTime() - t0) / 1e9
      val st = sampler.stats
      (st.steps / 1e6 / s, if (st.steps == 0) 0.0 else st.trials.toDouble / st.steps)
    }.drop(WarmRounds)
    KernelResult(Stats.median(rates.map(_._1)), Stats.median(rates.map(_._2)))
  }
}
