package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.graph.CSRGraph
import repro.sampler.SamplerFactory

/** Phase timings matching Table VI's columns (seconds). */
final case class PhaseTimes(tInit: Double, tWalk: Double, tLearn: Double) {
  def tTotal: Double = tInit + tWalk + tLearn
}

/** Snapshot of one full NRL run. `steps` counts sampled walk steps and
  * `trials` the sampler's weight-evaluation/proposal work — their ratio is
  * the scale-independent per-step cost (deg for direct, ~1/acceptance for
  * rejection, 1 for M-H/alias).
  */
final case class RunResult(
    times: PhaseTimes,
    walkCount: Long,
    acceptanceRatio: Double,
    initCount: Long,
    steps: Long,
    trials: Long,
    samplerSharedBytes: Long,
    samplerLocalBytes: Long,
) {
  def trialsPerStep: Double = if (steps == 0) Double.NaN else trials.toDouble / steps
}

/** Execution parameters of one run. `partitions` sets all of its
  * parallelism: `partitions = 1` prepares, walks and learns on one thread,
  * emulating the single-threaded open-sourced reference implementations;
  * UniNet runs use the paper's default parallelism of 16.
  */
final case class RunConfig(
    numWalks: Int,
    walkLen: Int,
    partitions: Int,
    seed: Long = 1L,
    learn: Boolean = false,
)

/** End-to-end NRL pipeline with the paper's phase accounting:
  *
  *  - Ti: driver-side sampler preparation (budget assignment, alias
  *    builds, proposal tables) plus the per-core share of M-H's *lazy*
  *    first-touch chain inits performed inside the walk job — the paper
  *    likewise separates initialization from walking;
  *  - Tw: wall time of the walk job minus that lazy-init share;
  *  - Tl: wall time of the word2vec fit on min(partitions, cores) threads.
  */
object Pipeline {

  /** Wall-clock share of lazy init that ran interleaved inside the walk
    * job: the summed init nanos over the cores that ran the job's tasks,
    * which is the partition count only when it does not exceed `cores`.
    */
  def lazyInitSeconds(initNanos: Long, partitions: Int, cores: Int): Double =
    initNanos / 1e9 / math.max(1, math.min(partitions, cores))

  def run(
      spark: SparkSession,
      bcGraph: Broadcast[CSRGraph],
      model: RandomWalkModel,
      factory: SamplerFactory,
      cfg: RunConfig,
  ): RunResult = {
    val g = bcGraph.value

    val t0 = System.nanoTime()
    factory.prepare(g, model, parallel = cfg.partitions > 1)
    // Shipping the prepared tables to the workers is initialization work.
    val bcFactory = spark.sparkContext.broadcast(factory: SamplerFactory)
    val prepSec = (System.nanoTime() - t0) / 1e9

    val (walks, acc) = UniNet.generateWalksPrepared(
      spark, bcGraph, model, bcFactory, cfg.numWalks, cfg.walkLen, cfg.partitions, cfg.seed)
    walks.persist(StorageLevel.MEMORY_AND_DISK)
    val t1 = System.nanoTime()
    val walkCount = walks.count()
    val walkWallSec = (System.nanoTime() - t1) / 1e9

    val cores = spark.sparkContext.defaultParallelism
    val lazyInitSec = lazyInitSeconds(acc.initNanos.value, cfg.partitions, cores)
    val tInit = prepSec + lazyInitSec
    val tWalk = math.max(0.0, walkWallSec - lazyInitSec)

    val tLearn =
      if (!cfg.learn) 0.0
      else {
        val t2 = System.nanoTime()
        Word2VecTrainer.train(walks, numPartitions = math.min(cfg.partitions, cores),
                              seed = cfg.seed)
        (System.nanoTime() - t2) / 1e9
      }

    // Blocking: a lazily-dropped cache would GC-contaminate the next
    // benchmark run's timing.
    walks.unpersist(blocking = true)
    bcFactory.destroy()
    RunResult(
      PhaseTimes(tInit, tWalk, tLearn),
      walkCount = walkCount,
      acceptanceRatio = acc.acceptanceRatio,
      initCount = acc.initCount.value,
      steps = acc.steps.value,
      trials = acc.trials.value,
      samplerSharedBytes = factory.memoryBytes(g, model),
      samplerLocalBytes = acc.localBytes.value,
    )
  }
}
