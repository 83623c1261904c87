package repro.core

import org.apache.spark.broadcast.Broadcast

import repro.{SparkSpec, TestGraphs}
import repro.model.{DeepWalk, MetaPath2Vec, Node2Vec}
import repro.sampler.{DirectSamplerFactory, HighWeightInit, MHSamplerFactory, SamplerFactory}

/** Walker life cycle on Spark (Alg. 2): counts, lengths, edge validity,
  * parallel independence, and stats plumbing.
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
    val (a, _) = walks(new DeepWalk, seed = 5)
    val (b, _) = walks(new DeepWalk, seed = 5)
    val (c, _) = walks(new DeepWalk, seed = 6)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
    assert(a.map(_.toSeq).toSeq != c.map(_.toSeq).toSeq)
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
    val m = new Node2Vec(0.5, 2.0)
    val bcF = bcMH()
    def run(bc: Broadcast[SamplerFactory], parts: Int, seed: Long) = {
      val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcG, m, bc, 2, 10, parts, seed)
      (rdd.collect().map(_.toSeq).toSeq, acc.localBytes.value)
    }
    val (_, dirtyBytes) = run(bcF, 4, 5L) // leaves its chains in the pool
    val (reused, reusedBytes) = run(bcF, 4, 3L)
    val fresh = UniNet.generateWalksPrepared(spark, bcG, m, bcMH(), 2, 10, 4, 3L)._1.collect()
    assert(reused == fresh.map(_.toSeq).toSeq)
    // Both jobs together hold no more than one job's pool.
    val perManager = 4L * (0 until g.numNodes).map(m.bucketSize(g, _).toLong).sum
    val slots = math.min(4, spark.sparkContext.defaultParallelism)
    assert(dirtyBytes + reusedBytes <= slots * perManager)
    // A 1-partition job repeated on the same factory touches the same
    // states, so its recycled array allocates nothing new.
    val bc1 = bcMH()
    val (once, onceBytes) = run(bc1, 1, 7L)
    val (twice, twiceBytes) = run(bc1, 1, 7L)
    assert(once == twice)
    assert(onceBytes > 0 && twiceBytes == 0L)
    bcF.destroy(); bc1.destroy()
  }

  test("M-H LAST_x bytes follow the cores that ran the job, not the partitions") {
    val m = new Node2Vec(0.5, 2.0)
    val perManager = 4L * (0 until g.numNodes).map(m.bucketSize(g, _).toLong).sum
    for (parts <- Seq(1, 4, 16)) {
      val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcG, m, bcMH(), 2, 10, parts, 11L)
      rdd.count()
      val slots = math.min(parts, spark.sparkContext.defaultParallelism)
      assert(acc.localBytes.value > 0)
      assert(acc.localBytes.value <= slots * perManager,
             s"$parts partitions: ${acc.localBytes.value} B > $slots x $perManager B")
    }
  }
}
