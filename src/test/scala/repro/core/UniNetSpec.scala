package repro.core

import org.apache.spark.broadcast.Broadcast

import repro.{SparkSpec, TestGraphs}
import repro.model.{DeepWalk, MetaPath2Vec, Node2Vec}
import repro.sampler.{DirectSamplerFactory, HighWeightInit, MHSamplerFactory, SamplerFactory}

/** Walker life cycle on Spark (Alg. 2): counts, lengths, edge validity,
  * reproducibility, M-H chains shared across tasks, and stats plumbing.
  */
class UniNetSpec extends SparkSpec {
  private lazy val g = TestGraphs.mediumGraph(n = 100, mult = 3)
  private lazy val bcG = spark.sparkContext.broadcast(g)
  private def bcMH() =
    spark.sparkContext.broadcast(new MHSamplerFactory(HighWeightInit()): SamplerFactory)

  private def walks(model: RandomWalkModel, k: Int = 2, len: Int = 10,
                    parts: Int = 4, seed: Long = 3L) = {
    val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcG, model, bcMH(), k, len, parts, seed)
    (rdd.collect(), acc)
  }

  test("K walks per node are generated (Alg. 2's outer loops)") {
    val (ws, _) = walks(new DeepWalk, k = 3)
    assert(ws.length == 3 * g.numNodes)
    val starts = ws.map(_.head).groupBy(identity).view.mapValues(_.length)
    (0 until g.numNodes).foreach(v => assert(starts(v) == 3))
  }

  test("walks have length L+1 on a connected graph") {
    val (ws, _) = walks(new DeepWalk, len = 15)
    assert(ws.forall(_.length == 16))
  }

  test("every consecutive pair in a walk is an edge") {
    val (ws, _) = walks(new Node2Vec(0.5, 2.0))
    ws.foreach { w =>
      w.sliding(2).foreach {
        case Array(a, b) => assert(g.hasEdge(a, b), s"($a,$b) not an edge")
        case _           =>
      }
    }
  }

  test("same seed reproduces the same walks; different seeds differ") {
    val bcD = spark.sparkContext.broadcast(DirectSamplerFactory: SamplerFactory)
    def run(bc: Broadcast[SamplerFactory], parts: Int, seed: Long) =
      UniNet.generateWalksPrepared(spark, bcG, new DeepWalk, bc, 2, 10, parts, seed)
        ._1.collect().map(_.toSeq).toSeq
    // Direct draws keep no state across tasks, and a one-partition M-H job
    // on a fresh factory walks its chains in one fixed order.
    assert(run(bcD, 4, 5L) == run(bcD, 4, 5L))
    assert(run(bcD, 4, 5L) != run(bcD, 4, 6L))
    assert(run(bcMH(), 1, 5L) == run(bcMH(), 1, 5L))
    assert(run(bcMH(), 1, 5L) != run(bcMH(), 1, 6L))
    // Concurrent M-H tasks share chains, so the seed fixes only the starts
    // (and, on this connected graph, the lengths); every hop is an edge.
    val (a, b) = (run(bcMH(), 4, 5L), run(bcMH(), 4, 5L))
    assert(a.map(w => (w.head, w.length)).sorted == b.map(w => (w.head, w.length)).sorted)
    for (w <- a ++ b; Seq(u, v) <- w.sliding(2)) assert(g.hasEdge(u, v), s"($u,$v) not an edge")
    bcD.destroy()
  }

  test("step counters add up to the walk work") {
    val (ws, acc) = walks(new DeepWalk, k = 1, len = 10)
    // Connected graph: every walker takes exactly `len` steps.
    assert(acc.steps.value == ws.map(_.length - 1).sum)
    assert(acc.steps.value == g.numNodes * 10L)
  }

  test("init happens once per touched state across a partition") {
    val (_, acc) = walks(new DeepWalk, k = 4, len = 10, parts = 1)
    // Deepwalk: one state per node; a single partition initializes each
    // visited node's sampler exactly once.
    assert(acc.initCount.value <= g.numNodes)
    assert(acc.initCount.value > 0)
  }

  test("metapath walks terminate early when stuck and never violate types") {
    val t = TestGraphs.typedGraph
    val bcT = spark.sparkContext.broadcast(t)
    val m = new MetaPath2Vec(Array(0, 1))
    val (rdd, _) = UniNet.generateWalksPrepared(spark, bcT, m, bcMH(), 2, 8, 2, 9L)
    val ws = rdd.collect()
    assert(ws.length == 2 * t.numNodes)
    // Walks from type-2 nodes are stuck immediately (length 1).
    ws.filter(w => t.nodeType(w.head) == 2).foreach(w => assert(w.length == 1))
    // Type sequence alternates 0,1,0,1,... for walks that do move.
    ws.filter(_.length > 1).foreach { w =>
      val t0 = t.nodeType(w.head)
      w.zipWithIndex.foreach { case (node, i) =>
        assert(t.nodeType(node) == (t0 + i) % 2)
      }
    }
    bcT.destroy()
  }

  test("direct-sampler walks match the same interface (factory swap)") {
    val (rdd, acc) = UniNet.generateWalksPrepared(
      spark, bcG, new DeepWalk, spark.sparkContext.broadcast(DirectSamplerFactory: SamplerFactory),
      1, 5, 2, 13L)
    val ws = rdd.collect()
    assert(ws.length == g.numNodes)
    assert(acc.trials.value > acc.steps.value) // O(deg) work per step
  }

  test("partition count is honored") {
    val (rdd, _) = UniNet.generateWalksPrepared(spark, bcG, new DeepWalk, bcMH(), 1, 3, 7, 21L)
    assert(rdd.getNumPartitions == 7)
    rdd.count()
  }

  test("counters are flushed when the consumer stops early (take)") {
    val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcG, new DeepWalk, bcMH(), 1, 10, 1, 17L)
    val Array(w) = rdd.take(1)
    assert(w.length == 11)
    assert(acc.steps.value == w.length - 1)
  }

  test("recycled M-H LAST_x arrays reproduce a fresh factory's walks") {
    // Unit weights and degree 4: every candidate is accepted and the exact
    // high-weight init draws no random numbers, so a chain's past cannot
    // show in its walks, and a job on a dirty shared array must walk what a
    // fresh factory walks, at any number of concurrent tasks.
    val n = 60
    val uni = TestGraphs.fromTriples(n, (0 until n).flatMap(v =>
      Seq((v, (v + 1) % n, 1.0), (v, (v + 7) % n, 1.0))))
    val bcU = spark.sparkContext.broadcast(uni)
    val m = new DeepWalk
    def run(bc: Broadcast[SamplerFactory], parts: Int, seed: Long) = {
      val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcU, m, bc, 2, 10, parts, seed)
      (rdd.collect().map(_.toSeq).toSeq, acc.localBytes.value)
    }
    val bcF = bcMH()
    val (_, dirtyBytes) = run(bcF, 4, 5L) // leaves its chains in the shared array
    val (reused, reusedBytes) = run(bcF, 4, 3L)
    val (fresh, _) = run(bcMH(), 4, 3L)
    assert(reused == fresh)
    assert(dirtyBytes == 2L * m.numSlots(uni) && reusedBytes == 0L)
    // A 1-partition job repeated on the same factory allocates nothing new.
    val bc1 = bcMH()
    val (once, onceBytes) = run(bc1, 1, 7L)
    val (twice, twiceBytes) = run(bc1, 1, 7L)
    assert(once == twice)
    assert(onceBytes > 0 && twiceBytes == 0L)
    bcF.destroy(); bc1.destroy(); bcU.destroy()
  }

  test("M-H LAST_x bytes follow the cores that ran the job, not the partitions") {
    // One array per executor's copy of the factory (one JVM in local mode),
    // whatever the number of partitions or of cores that ran them.
    val m = new Node2Vec(0.5, 2.0)
    val arrayBytes = 2L * m.numSlots(g)
    for (parts <- Seq(1, 4, 16)) {
      val bcF = bcMH()
      def run() = {
        val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcG, m, bcF, 2, 10, parts, 11L)
        rdd.count()
        acc.localBytes.value
      }
      assert(run() == arrayBytes, s"$parts partitions")
      assert(run() == 0L, s"$parts partitions: a second job reallocated LAST_x")
      bcF.destroy()
    }
    // One chain per state: a deepwalk job initializes each node at most once.
    val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcG, new DeepWalk, bcMH(), 2, 10, 16, 11L)
    rdd.count()
    assert(acc.initCount.value > 0 && acc.initCount.value <= g.numNodes, acc.initCount.value)
  }
}
