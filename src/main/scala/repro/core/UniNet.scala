package repro.core

import java.util.SplittableRandom

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.LongAccumulator

import repro.graph.CSRGraph
import repro.sampler.{EdgeSampler, SamplerFactory}

/** Aggregated sampling counters for one walk-generation job, flushed from
  * each partition's [[repro.sampler.LocalStats]] when its task completes.
  * KnightKing's `preAccepts` stays per sampler: no job-level reader needs it.
  */
final class WalkAccumulators(@transient spark: SparkSession) extends Serializable {
  // Note: only the accumulators may become fields — a captured
  // SparkContext would make the walker closure unserializable.
  val steps: LongAccumulator = spark.sparkContext.longAccumulator("steps")
  val trials: LongAccumulator = spark.sparkContext.longAccumulator("trials")
  val accepts: LongAccumulator = spark.sparkContext.longAccumulator("accepts")
  val initNanos: LongAccumulator = spark.sparkContext.longAccumulator("initNanos")
  val initCount: LongAccumulator = spark.sparkContext.longAccumulator("initCount")
  /** Partition-local sampler bytes the job allocated: memory-aware's lazy
    * alias tables, plus the LAST_x arrays M-H newly allocated. Those
    * arrays are recycled across tasks, so per JVM this is at most
    * min(partitions, cores) arrays' worth; a factory reused across jobs
    * reports nothing for the arrays already in its pool.
    */
  val localBytes: LongAccumulator = spark.sparkContext.longAccumulator("localBytes")

  /** Fraction of proposal trials accepted (rejection-style samplers) or
    * of M-H candidates accepted; NaN when nothing was counted.
    */
  def acceptanceRatio: Double =
    if (trials.value == 0) Double.NaN else accepts.value.toDouble / trials.value

  /** Adds one task's counters; call before the sampler is released. */
  private[core] def flush(sampler: EdgeSampler): Unit = {
    val st = sampler.stats
    steps.add(st.steps); trials.add(st.trials)
    accepts.add(st.accepts)
    initNanos.add(st.initNanos); initCount.add(st.initCount)
    localBytes.add(st.localBytes)
  }
}

/** The UniNet walk engine (paper Alg. 2) on Spark.
  *
  * The CSR network is broadcast once; walkers are a range RDD of
  * (startNode, walkIndex) pairs, split over `numPartitions` partitions.
  * Each partition instantiates one edge sampler from the (broadcast,
  * already-prepared) factory — sampler state such as LAST_x or lazy alias
  * tables is partition-local, mirroring the paper's per-thread walkers:
  * the per-state Markov chains of different partitions are independent,
  * which preserves the M-H convergence argument. The sampler goes back to
  * the factory when its task completes; M-H recycles the LAST_x storage,
  * reset, for the executor's next task.
  */
object UniNet {

  /** One walk from `start`: the node sequence, length <= walkLen + 1
    * (walks terminate early when the state admits no edge).
    */
  def runWalk(g: CSRGraph, model: RandomWalkModel, sampler: EdgeSampler,
              start: Int, walkLen: Int, rng: SplittableRandom): Array[Int] = {
    val buf = new Array[Int](walkLen + 1)
    buf(0) = start
    var n = 1
    var s = model.initialState(g, start)
    var step = 0
    var stuck = false
    while (step < walkLen && !stuck) {
      val e = sampler.sample(s, rng)
      if (e < 0) stuck = true
      else {
        buf(n) = g.dst(e); n += 1
        s = model.updateState(g, s, e)
      }
      step += 1
    }
    if (n == buf.length) buf else java.util.Arrays.copyOf(buf, n)
  }

  /** Generate `numWalks` walks of length `walkLen` per node (Alg. 2's
    * K and L). The factory must already be `prepare`d and broadcast; its
    * shared tables ride inside the broadcast, so callers (Pipeline) can
    * attribute the broadcast's serialization cost (large for samplers with
    * shared tables) to the init phase.
    */
  def generateWalksPrepared(
      spark: SparkSession,
      bcGraph: Broadcast[CSRGraph],
      model: RandomWalkModel,
      bcFactory: Broadcast[SamplerFactory],
      numWalks: Int,
      walkLen: Int,
      numPartitions: Int,
      seed: Long,
  ): (RDD[Array[Int]], WalkAccumulators) = {
    val sc = spark.sparkContext
    val acc = new WalkAccumulators(spark)
    val n = bcGraph.value.numNodes
    val walks = sc
      .range(0L, n.toLong * numWalks, 1L, numPartitions)
      .mapPartitionsWithIndex { (pid, it) =>
        val g = bcGraph.value
        val factory = bcFactory.value
        val sampler = factory.create(g, model)
        // Flush the counters and recycle the sampler when the task ends,
        // also when its consumer stops early (take, first) or it is killed.
        TaskContext.get().addTaskCompletionListener[Unit] { _ =>
          acc.flush(sampler)
          factory.release(sampler)
        }
        val rng = new SplittableRandom(seed * 1000003L + pid)
        it.map(i => runWalk(g, model, sampler, (i % n).toInt, walkLen, rng))
      }
    (walks, acc)
  }
}
