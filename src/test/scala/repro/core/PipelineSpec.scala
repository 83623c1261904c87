package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.model.{DeepWalk, Node2Vec}
import repro.sampler.{AliasSamplerFactory, HighWeightInit, MHSamplerFactory}

/** End-to-end pipeline with phase timing (Ti / Tw / Tl accounting). */
class PipelineSpec extends SparkSpec {
  private lazy val g = TestGraphs.mediumGraph(n = 120, mult = 3)
  private lazy val bcG = spark.sparkContext.broadcast(g)

  test("full run produces walks, tokens, and non-negative phase times") {
    val r = Pipeline.run(spark, bcG, new DeepWalk, new MHSamplerFactory(HighWeightInit()),
                         RunConfig(numWalks = 2, walkLen = 8, partitions = 4, learn = true))
    assert(r.walkCount == 2L * g.numNodes)
    assert(r.times.tInit >= 0 && r.times.tWalk >= 0 && r.times.tLearn > 0)
    assert(math.abs(r.times.tTotal - (r.times.tInit + r.times.tWalk + r.times.tLearn)) < 1e-9)
  }

  test("learn = false skips the learning phase") {
    val r = Pipeline.run(spark, bcG, new DeepWalk, new MHSamplerFactory(HighWeightInit()),
                         RunConfig(numWalks = 1, walkLen = 5, partitions = 2))
    assert(r.times.tLearn == 0.0)
  }

  test("precompute-all alias attributes its build to Ti, not Tw") {
    val m = new Node2Vec(0.5, 2.0)
    val r = Pipeline.run(spark, bcG, m, new AliasSamplerFactory,
                         RunConfig(numWalks = 1, walkLen = 5, partitions = 2))
    assert(r.times.tInit > 0)
    assert(r.samplerSharedBytes > 0)
  }

  test("a memory-aware budget bounds the job's sampler bytes at every partition count") {
    // The walk-corpus golden graph, on which node2vec's alias tables need
    // more than the budget.
    val gg = TestGraphs.mediumGraph(600, 4, 11, numTypes = 3)
    val bcGG = spark.sparkContext.broadcast(gg)
    val m = new Node2Vec(0.25, 4.0)
    val budget = 200_000L
    val all = new AliasSamplerFactory
    all.prepare(gg, m, parallel = false)
    assert(all.memoryBytes(gg, m) > budget)
    val bytes = for (parts <- Seq(1, 4, 16)) yield {
      val r = Pipeline.run(spark, bcGG, m, new AliasSamplerFactory(budget),
                           RunConfig(numWalks = 3, walkLen = 20, partitions = parts))
      val b = r.samplerSharedBytes + r.samplerLocalBytes
      assert(b > 0L && b <= budget, s"$parts partitions: $b bytes")
      b
    }
    bcGG.destroy()
    info(s"sampler bytes at 1, 4 and 16 partitions: ${bytes.mkString(", ")}")
    assert(bytes.distinct.size == 1, bytes)
  }

  test("M-H lazy initialization is separated out of Tw") {
    val m = new Node2Vec(0.5, 2.0)
    val r = Pipeline.run(spark, bcG, m, new MHSamplerFactory(HighWeightInit()),
                         RunConfig(numWalks = 2, walkLen = 10, partitions = 2))
    assert(r.initCount > 0)    // states were lazily initialized
    assert(r.times.tInit > 0)  // ... and their cost shows up in Ti
    assert(r.samplerLocalBytes > 0) // LAST_x storage was allocated
    // ... once: local mode is one executor, so one array, charged only locally.
    assert(r.samplerSharedBytes == 0L)
    assert(r.samplerLocalBytes == 4L * m.numSlots(g))
  }

  test("acceptance ratio is reported and sane for M-H") {
    val r = Pipeline.run(spark, bcG, new DeepWalk, new MHSamplerFactory(HighWeightInit()),
                         RunConfig(numWalks = 2, walkLen = 10, partitions = 2))
    assert(r.acceptanceRatio > 0 && r.acceptanceRatio <= 1.0)
  }

  test("single-partition baseline configuration runs") {
    val r = Pipeline.run(spark, bcG, new DeepWalk, repro.sampler.DirectSamplerFactory,
                         RunConfig(numWalks = 1, walkLen = 5, partitions = 1))
    assert(r.walkCount == g.numNodes)
  }

  test("lazy-init share divides by the cores that ran it, not the partition count") {
    val cores = spark.sparkContext.defaultParallelism
    val initNanos = 8_000_000_000L
    val share = Pipeline.lazyInitSeconds(initNanos, cores, cores)
    assert(Pipeline.lazyInitSeconds(initNanos, math.max(16, cores), cores) == share)
    assert(math.abs(share - 8.0 / cores) < 1e-12)
    assert(Pipeline.lazyInitSeconds(initNanos, 1, cores) == 8.0)
  }

  test("Ti + Tw fits in the run's wall time at 1 and 16 partitions") {
    for (parts <- Seq(1, 16)) {
      val t0 = System.nanoTime()
      val r = Pipeline.run(spark, bcG, new Node2Vec(0.5, 2.0), new MHSamplerFactory(HighWeightInit()),
                           RunConfig(numWalks = 2, walkLen = 10, partitions = parts))
      val wall = (System.nanoTime() - t0) / 1e9
      assert(r.times.tInit + r.times.tWalk <= wall, s"$parts partitions")
      assert(r.times.tWalk > 0, s"$parts partitions: lazy-init share exceeded the walk job")
    }
  }
}
