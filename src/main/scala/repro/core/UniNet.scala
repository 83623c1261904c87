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
  /** Sampler bytes the job allocated outside the prepared factory: M-H's
    * LAST_x array. Every task of an executor shares that one array, so a
    * job reports one array per executor, and a later job on the same
    * factory, graph and model reports nothing for it.
    */
  val localBytes: LongAccumulator = spark.sparkContext.longAccumulator("localBytes")

  /** Fraction of proposal trials accepted (rejection-style samplers) or
    * of M-H candidates accepted; NaN when nothing was counted.
    */
  def acceptanceRatio: Double =
    if (trials.value == 0) Double.NaN else accepts.value.toDouble / trials.value

  /** Adds one task's counters. */
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
  * already-prepared) factory, whose tables every task shares. M-H's
  * LAST_x is shared too: as in the paper's single sampler manager
  * (§IV-C), every task of an executor walks the same per-state Markov
  * chains, which its copy of the factory keeps for as long as it lives.
  * Tasks that run at the same time update those chains without locks
  * (Hogwild!, Recht et al. 2011): a lost update costs one chain step, and
  * every emitted edge is still drawn from the state's neighbours by
  * Alg. 1.
  *
  * One consequence for M-H: a task's walks depend on the chain positions
  * that earlier and concurrent tasks left behind. A one-partition job on
  * a fresh factory gives the same corpus for the same seed; with more
  * partitions the seed fixes the start nodes, but the walks depend on
  * task scheduling. Likewise a recomputed partition (a task retry, a
  * cache eviction, a second action on an unpersisted corpus) draws
  * different, equally valid walks.
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
        // Flush the counters when the task ends, also when its consumer
        // stops early (take, first) or it is killed.
        TaskContext.get().addTaskCompletionListener[Unit] { _ => acc.flush(sampler) }
        val rng = new SplittableRandom(seed * 1000003L + pid)
        it.map(i => runWalk(g, model, sampler, (i % n).toInt, walkLen, rng))
      }
    (walks, acc)
  }
}
