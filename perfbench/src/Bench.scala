package perfbench

import java.util.SplittableRandom

import scala.collection.mutable

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.{RandomWalkModel, UniNet, WalkAccumulators, Word2VecTrainer}
import repro.graph.{CSRGraph, DatasetConfig, GraphGen}
import repro.model.{DeepWalk, Node2Vec}
import repro.sampler.{HighWeightInit, MHSamplerFactory, SamplerFactory}

/** One benchmark workload: a dataset, a (model, sampler) pair, the walk
  * job's size and whether the learner runs inside the timed pipeline.
  */
final case class Workload(
    name: String,
    dataset: DatasetConfig,
    model: RandomWalkModel,
    newFactory: () => SamplerFactory,
    numWalks: Int,
    walkLen: Int,
    partitions: Int,
    learn: Boolean,
)

/** Inputs derived from the workload seed; the program only sees these. */
final case class Seeds(dataset: Long, holdout: Long, walk: Long)

object Seeds {
  def apply(seed: Long): Seeds = {
    val r = new SplittableRandom(seed)
    Seeds(r.nextLong() >>> 33, r.nextLong() >>> 33, r.nextLong() >>> 33)
  }
}

/** A built graph: the broadcast CSR plus its held-out link-prediction pairs. */
final case class Graph(g: CSRGraph, bc: Broadcast[CSRGraph], holdout: Holdout)

/** What one pass of the timed pipeline left behind. The corpus stays
  * persisted until `release`, so checks and probes can read it.
  */
final class Pass(
    val walkS: Double,
    val learnS: Double,
    val factory: SamplerFactory,
    val bcFactory: Broadcast[SamplerFactory],
    val walks: RDD[Array[Int]],
    val acc: WalkAccumulators,
    var vectors: Option[Array[Array[Float]]],
) {
  def embedS: Double = walkS + learnS

  def release(): Unit = {
    walks.unpersist(blocking = true)
    bcFactory.destroy()
  }
}

object Bench {
  val Dim = 16
  val Window = 5
  val LearnIterations = 1
  val HoldoutShare = 0.1
  val SetupReps = 3
  /** Passes per run that warm the JIT and the heap up and are not reported. */
  val WarmPasses = 2
  /** embed_auc learns from each node's first walk, cut to this many steps. */
  val QualitySteps = 20
  /** One corpus step in this many feeds `sampler.walk_bias`. */
  val BiasEvery = 16

  val workloads: Seq[Workload] = Seq(
    Workload("dw-flickr-learn", GraphGen.datasets("Flickr"), new DeepWalk,
             () => new MHSamplerFactory(HighWeightInit()), numWalks = 1, walkLen = 20,
             partitions = 16, learn = true),
    Workload("n2v-flickr-mh", GraphGen.datasets("Flickr"), new Node2Vec(0.25, 4.0),
             () => new MHSamplerFactory(HighWeightInit()), numWalks = 2, walkLen = 80,
             partitions = 16, learn = false),
  )

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        commit: String, sourceSha: String)

  def parseArgs(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         kv.getOrElse("commit", "unknown"), kv.getOrElse("source-sha", "unknown"))
  }

  def session(cores: Int, localDir: String): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def main(args: Array[String]): Unit = {
    val a = parseArgs(args)
    val cores = Runtime.getRuntime.availableProcessors()
    val w = workloads.find(_.name == a.workload)
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${a.workload}"))
    val spark = session(cores, sys.props.getOrElse("perfbench.localDir", "spark-local"))
    try {
      val seeds = Seeds(a.seed)
      val run = new Runner(spark, w.copy(dataset = w.dataset.copy(seed = seeds.dataset)), seeds, cores)
      val result = if (a.trace) run.traced(a.seconds) else run.untraced(a.seconds)
      println(Json.obj("provenance" -> Json.obj(
        "workload" -> Json.str(w.name), "seed" -> Json.num(a.seed),
        "dataset_seed" -> Json.num(seeds.dataset), "holdout_seed" -> Json.num(seeds.holdout),
        "walk_seed" -> Json.num(seeds.walk), "nproc" -> Json.num(cores),
        "spark_master" -> Json.str(spark.sparkContext.master),
        "driver_xmx_mb" -> Json.num(Runtime.getRuntime.maxMemory / (1 << 20)),
        "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
        "spark" -> Json.str(spark.version),
        "commit" -> Json.str(a.commit), "source_sha" -> Json.str(a.sourceSha),
        "num_walks" -> Json.num(w.numWalks), "walk_len" -> Json.num(w.walkLen),
        "partitions" -> Json.num(w.partitions), "reps" -> Json.num(result.reps))))
      run.tracer.spans.foreach { s =>
        println(Json.obj("span" -> Json.str(s.name), "id" -> Json.num(s.id),
          "parent" -> Json.num(s.parent), "seconds" -> Json.num(s.seconds),
          "self_s" -> Json.num(run.tracer.selfSeconds(s)), "gc_s" -> Json.num(s.gcMs / 1e3)))
      }
      println(result.json)
    } finally spark.stop()
  }
}

/** The result line: correctness, walks attempted and failed, metrics. */
final case class Result(correct: Boolean, attempted: Long, failed: Long, reps: Int,
                        metrics: Seq[(String, Double, String)]) {
  def json: String = Json.obj(
    "correct" -> Json.bool(correct), "attempted" -> Json.num(attempted),
    "failed" -> Json.num(failed),
    "metrics" -> Json.obj(metrics.map { case (k, v, u) =>
      k -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u))
    }: _*))
}

/** Runs one workload. The untraced path times the same public calls
  * `Pipeline.run` makes, in its order: `factory.prepare`, the factory
  * broadcast, `UniNet.generateWalksPrepared` then persist and `count`,
  * then `Word2VecTrainer.train`. `Pipeline.run` itself is not called
  * because it drops the trained model, which `embed_auc` needs.
  */
final class Runner(spark: SparkSession, w: Workload, seeds: Seeds, cores: Int) {
  private val sc = spark.sparkContext
  private val model = w.model
  var tracer = new Tracer(false)
  private var attempted = 0L
  private var failed = 0L

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val born = System.nanoTime()
  /** Progress on stderr, with seconds since the runner started. */
  def log(msg: String): Unit = Console.err.println(f"[perfbench ${secs(born)}%7.2f s] $msg")

  /** Run `body` with tracing off. */
  private def untracedDo[T](body: => T): T = {
    val saved = tracer; tracer = new Tracer(false)
    try body finally tracer = saved
  }

  /** Generate the edge frame, build the CSR, broadcast it. Returns the
    * graph and the three timed parts (edges, CSR, broadcast); the
    * held-out edges are removed between the first two, untimed.
    */
  def setup(holdout: Holdout, first: Boolean): (Graph, Array[Double]) = {
    val cfg = w.dataset
    val t0 = System.nanoTime()
    val rows = tracer.span("graph.edges") { GraphGen.edgesDF(spark, cfg).collect() }
    val edgesS = secs(t0)
    val us = rows.map(_.getLong(0).toInt); val vs = rows.map(_.getLong(1).toInt)
    val ws = rows.map(_.getDouble(2).toFloat)
    if (first) holdout.choosePairs(us, vs)
    val keep = us.indices.filterNot(i => holdout.held(us(i), vs(i))).toArray
    val t1 = System.nanoTime()
    val g = tracer.span("graph.csr") {
      CSRGraph.fromUndirectedEdges(cfg.numNodes, keep.map(us), keep.map(vs), keep.map(ws))
    }
    val csrS = secs(t1)
    val t2 = System.nanoTime()
    val bc = tracer.span("graph.bcast") { sc.broadcast(g) }
    val bcastS = secs(t2)
    (Graph(g, bc, holdout), Array(edgesS, csrS, bcastS))
  }

  /** Set up `SetupReps` times; keep the last graph. */
  def setupAll(): (Graph, Seq[Array[Double]]) = {
    val holdout = new Holdout(w.dataset.numNodes, Bench.HoldoutShare, seeds.holdout)
    val times = mutable.ArrayBuffer.empty[Array[Double]]
    var graph: Graph = null
    for (i <- 0 until Bench.SetupReps) {
      if (graph != null) graph.bc.destroy()
      System.gc()
      val (gr, t) = tracer.span("graph.setup") { setup(holdout, first = i == 0) }
      graph = gr; times += t
      log(s"setup ${t.map(x => f"$x%.3f").mkString(" ")}")
    }
    (graph, times.toSeq)
  }

  private def train(corpus: RDD[Array[Int]], n: Int): Array[Array[Float]] = {
    val m = tracer.span("core.learn") {
      Word2VecTrainer.train(corpus, dim = Bench.Dim, numPartitions = cores,
                            iterations = Bench.LearnIterations, window = Bench.Window,
                            seed = seeds.walk)
    }
    val vecs = new Array[Array[Float]](n)
    m.getVectors.foreach { case (k, v) => vecs(k.toInt) = v }
    vecs
  }

  /** One pass of the timed pipeline; the learner runs when the workload
    * learns. `group` names the Spark job group when tracing.
    */
  def pass(gr: Graph, partitions: Int, group: String): Pass = {
    System.gc()
    tracer.span(group) { timedPass(gr, partitions, group) }
  }

  private def timedPass(gr: Graph, partitions: Int, group: String): Pass = {
    if (tracer.enabled) sc.setJobGroup(group, group)
    val t0 = System.nanoTime()
    val factory = w.newFactory()
    tracer.span("sampler.prepare") { factory.prepare(gr.g, model, true) }
    val bcF = tracer.span("sampler.bcast") { sc.broadcast(factory: SamplerFactory) }
    val (walks, acc) = UniNet.generateWalksPrepared(
      spark, gr.bc, model, bcF, w.numWalks, w.walkLen, partitions, seeds.walk)
    walks.persist(StorageLevel.MEMORY_AND_DISK)
    tracer.span("core.walk_job") { walks.count() }
    val walkS = secs(t0)
    var learnS = 0.0
    val vectors =
      if (!w.learn) None
      else {
        if (tracer.enabled) sc.setJobGroup(group + "-learn", group + "-learn")
        val t1 = System.nanoTime()
        val v = train(walks, gr.g.numNodes)
        learnS = secs(t1)
        Some(v)
      }
    if (tracer.enabled) sc.clearJobGroup()
    log(f"$group walk $walkS%.3f s learn $learnS%.3f s")
    new Pass(walkS, learnS, factory, bcF, walks, acc, vectors)
  }

  /** Vectors for embed_auc on a walk-only workload: the learner runs
    * outside the timing, on a fixed slice of the pass's corpus (each
    * node's first walk, cut to `QualitySteps` steps), so the quality
    * figure does not depend on the workload's walk count or length.
    */
  def learnSlice(gr: Graph, p: Pass, group: String): Long = tracer.span("quality") {
    if (tracer.enabled) sc.setJobGroup(group + "-learn", group + "-learn")
    val slice = p.walks.zipWithIndex().filter(_._1.nonEmpty).keyBy(_._1(0))
      .reduceByKey((a, b) => if (a._2 < b._2) a else b)
      .map(_._2._1.take(Bench.QualitySteps + 1))
      .persist(StorageLevel.MEMORY_AND_DISK)
    val tokens = slice.map(_.length.toLong).sum().toLong
    p.vectors = Some(train(slice, gr.g.numNodes))
    slice.unpersist(blocking = true)
    if (tracer.enabled) sc.clearJobGroup()
    checkVectors(p)
    tokens
  }

  /** Output checks of a pass's corpus, counted into attempted / failed. */
  def check(gr: Graph, p: Pass): WalkCheck = tracer.span("bench.check") {
    val c = Checks.walks(p.walks, gr.bc, model, w.numWalks, w.walkLen)
    attempted += gr.g.numNodes.toLong * w.numWalks
    failed += c.failed
    checkVectors(p)
    c
  }

  /** A node without a vector of the configured dimension fails its walks. */
  private def checkVectors(p: Pass): Unit = p.vectors.foreach { vecs =>
    failed += vecs.count(v => v == null || v.length != Bench.Dim).toLong * w.numWalks
  }

  /** Calls `one` until `seconds` have elapsed, at least `min` times. */
  private def repeat[T](seconds: Double, min: Int)(one: () => T): Seq[T] = {
    val out = mutable.ArrayBuffer.empty[T]
    val t0 = System.nanoTime()
    while (out.size < min || secs(t0) < seconds) out += one()
    out.toSeq
  }

  def untraced(seconds: Double): Result = {
    val (gr, setupTimes) = setupAll()
    var last: Pass = null
    val passes = repeat(seconds, Bench.WarmPasses + 2) { () =>
      if (last != null) last.release()
      last = pass(gr, w.partitions, "pipeline")
      check(gr, last)
      (last.walkS, last.embedS)
    }
    if (!w.learn) learnSlice(gr, last, "quality")
    val auc = gr.holdout.auc(last.vectors.get)
    val mb = (last.factory.memoryBytes(gr.g, model) + last.acc.localBytes.value) / 1e6
    last.release()
    Result(failed == 0, attempted, failed, passes.size, Seq(
      ("setup_s", Stats.median(setupTimes.map(_.sum)), "s"),
      ("walk_s", Stats.steadyMedian(passes.map(_._1), Bench.WarmPasses), "s"),
      ("embed_s", Stats.steadyMedian(passes.map(_._2), Bench.WarmPasses), "s"),
      ("embed_auc", auc, "auc"),
      ("sampler_mb", mb, "MB"),
    ))
  }

  /** Run `body` with the listener attached; returns the task timings of
    * the job groups `group` and `group-learn`.
    */
  private def listened[T](listener: TaskListener, group: String)(body: => T): (T, TaskStats, TaskStats) = {
    sc.addSparkListener(listener)
    try {
      val r = body
      (r, listener.collect(sc, group), listener.collect(sc, group + "-learn"))
    } finally sc.removeSparkListener(listener)
  }

  def traced(seconds: Double): Result = {
    val listener = new TaskListener
    tracer = new Tracer(true)
    val (gr, _) = setupAll()
    def setupPart(name: String) = Stats.median(tracer.spans.filter(_.name == name).map(_.seconds).toSeq)

    // Pairs of an untraced and a traced pass; the difference of their
    // medians is the tracing overhead. The last traced pass is kept.
    val plain = mutable.ArrayBuffer.empty[Double]
    var held: (Pass, TaskStats, TaskStats) = null
    var c: WalkCheck = null
    // The first pair is warm-up.
    val pairs = repeat(seconds, 2) { () =>
      if (held != null) held._1.release()
      val q = untracedDo { pass(gr, w.partitions, "plain") }
      check(gr, q); q.release()
      plain += q.embedS
      held = listened(listener, "pipeline") { pass(gr, w.partitions, "pipeline") }
      c = check(gr, held._1)
      held._1.embedS
    }
    val (p, walkTasks, learnTasks0) = held
    val walkJob = tracer.last("core.walk_job")
    val prepareS = tracer.last("sampler.prepare").seconds
    val bcastS = tracer.last("sampler.bcast").seconds

    // On walk-only workloads the learner layer is measured where it runs
    // for embed_auc's vectors, outside the timed pipeline.
    val (learnTokens, learnTasks) =
      if (w.learn) (c.tokens, learnTasks0)
      else {
        val (tokens, _, t) = listened(listener, "quality") { learnSlice(gr, p, "quality") }
        (tokens, t)
      }
    val learnSpan = tracer.last("core.learn")

    val steps = p.acc.steps.value
    val inits = p.acc.initCount.value
    val states = tracer.span("bench.distinct_states") { Checks.distinctStates(p.walks, gr.bc, model) }
    val bias = tracer.span("bench.walk_bias") {
      Checks.walkBias(p.walks, gr.bc, model, seeds.walk, Bench.BiasEvery)
    }
    p.release()

    // Partition probe: the same walk job with one partition per core.
    val pc = pass(gr, cores, "pcores")
    check(gr, pc); pc.release()
    val pcoresJob = tracer.last("core.walk_job").seconds

    val kernel = tracer.span("bench.kernel") { Kernel.run(gr.g, model, p.factory, w, seeds.walk) }
    val ratio = (a: Double, b: Double) => if (b == 0) 0.0 else a / b
    val accept = { val r = p.acc.acceptanceRatio; if (r.isNaN) 0.0 else r }
    Result(failed == 0, attempted, failed, 2 * pairs.size, Seq(
      ("graph.edges_s", setupPart("graph.edges"), "s"),
      ("graph.csr_s", setupPart("graph.csr"), "s"),
      ("graph.bcast_s", setupPart("graph.bcast"), "s"),
      ("graph.directed_edges", gr.g.numDirectedEdges.toDouble, "count"),
      ("sampler.prepare_s", prepareS, "s"),
      ("sampler.bcast_s", bcastS, "s"),
      ("sampler.shared_mb", p.factory.memoryBytes(gr.g, model) / 1e6, "MB"),
      ("sampler.kernel_msteps_per_s", kernel.mstepsPerS, "Msteps/s"),
      ("sampler.kernel_trials_per_step", kernel.trialsPerStep, "ratio"),
      ("sampler.accept_ratio", accept, "ratio"),
      ("sampler.chain_inits", inits.toDouble, "count"),
      ("sampler.chains_per_state", ratio(inits.toDouble, states.toDouble), "ratio"),
      ("sampler.walk_bias", bias, "ratio"),
      ("core.walk_job_s", walkJob.seconds, "s"),
      ("core.walk_msteps_per_s", ratio(steps / 1e6, walkJob.seconds), "Msteps/s"),
      ("core.walk_task_p50_s", walkTasks.p50, "s"),
      ("core.walk_task_max_s", walkTasks.max, "s"),
      ("core.walk_busy_share", ratio(walkTasks.runSeconds, walkJob.seconds * cores), "ratio"),
      ("core.walk_gc_s", walkJob.gcMs / 1e3, "s"),
      ("core.local_mb", p.acc.localBytes.value / 1e6, "MB"),
      ("core.corpus_tokens", c.tokens.toDouble, "count"),
      ("core.short_walk_share", ratio(c.shortWalks.toDouble, c.walks.toDouble), "ratio"),
      ("core.learn_s", learnSpan.seconds, "s"),
      ("core.learn_tokens_per_s", ratio(learnTokens.toDouble, learnSpan.seconds), "1/s"),
      ("core.learn_task_max_s", learnTasks.max, "s"),
      ("core.learn_busy_share", ratio(learnTasks.runSeconds, learnSpan.seconds * cores), "ratio"),
      ("core.learn_gc_s", learnSpan.gcMs / 1e3, "s"),
      ("core.walk_job_s_pcores", pcoresJob, "s"),
      ("sampler.chain_inits_pcores", pc.acc.initCount.value.toDouble, "count"),
      ("core.local_mb_pcores", pc.acc.localBytes.value / 1e6, "MB"),
      ("trace.overhead_s", Stats.steadyMedian(pairs, 1) - Stats.steadyMedian(plain.toSeq, 1), "s"),
    ))
  }
}
