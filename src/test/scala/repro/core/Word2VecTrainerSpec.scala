package repro.core

import java.util.SplittableRandom

import scala.util.hashing.MurmurHash3

import repro.{SparkSpec, TestGraphs}
import repro.model.DeepWalk
import repro.sampler.{HighWeightInit, MHSamplerFactory, SamplerFactory}

/** Learning phase: the int-native skip-gram trainer over the walk corpus. */
class Word2VecTrainerSpec extends SparkSpec {

  private lazy val g = TestGraphs.mediumGraph(n = 60, mult = 3)

  private lazy val corpus = {
    val bcG = spark.sparkContext.broadcast(g)
    val (rdd, _) = UniNet.generateWalksPrepared(
      spark, bcG, new DeepWalk,
      spark.sparkContext.broadcast(new MHSamplerFactory(HighWeightInit()): SamplerFactory),
      5, 10, 4, 41L)
    rdd.cache()
  }

  test("embeddings have the configured dimensionality") {
    val model = Word2VecTrainer.train(corpus, dim = 12, numPartitions = 2)
    assert(model.getVectors.head._2.length == 12)
  }

  test("vocabulary covers every node that appears in the walks") {
    val model = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 2)
    val seen = corpus.flatMap(_.map(_.toString)).distinct().collect().toSet
    assert(model.getVectors.keySet == seen)
    assert(seen.size == g.numNodes) // connected graph: every node walked
  }

  test("embeddings are finite numbers") {
    val model = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 2)
    model.getVectors.values.foreach(v => v.foreach(x => assert(!x.isNaN && !x.isInfinite)))
  }

  test("single-partition training (baseline emulation) works") {
    val model = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 1)
    assert(model.getVectors.nonEmpty)
  }

  test("training is deterministic under a fixed seed and partitioning") {
    val a = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 1, seed = 7L)
    val b = Word2VecTrainer.train(corpus, dim = 8, numPartitions = 1, seed = 7L)
    assert(a.getVectors.view.mapValues(_.toSeq).toMap ==
           b.getVectors.view.mapValues(_.toSeq).toMap)
  }

  /** Node 7's walk is the node alone, as a stuck metapath walk is. */
  private lazy val withStuckWalk =
    spark.sparkContext.parallelize(Seq(Array(0, 1, 2, 1, 0), Array(7)), 2)

  test("length-1 walks still give their node a finite vector of the configured dimension") {
    val v = Word2VecTrainer.train(withStuckWalk, dim = 6, numPartitions = 2).getVectors("7")
    assert(v.length == 6)
    v.foreach(x => assert(!x.isNaN && !x.isInfinite))
  }

  test("node ids absent from the corpus get no vector") {
    val model = Word2VecTrainer.train(withStuckWalk, dim = 6, numPartitions = 2)
    assert(model.getVectors.keySet == Set("0", "1", "2", "7"))
  }

  test("more threads than cores trains and returns every seen node") {
    val threads = 4 * Runtime.getRuntime.availableProcessors()
    val model = Word2VecTrainer.train(corpus, dim = 8, numPartitions = threads)
    val seen = corpus.flatMap(_.map(_.toString)).distinct().collect().toSet
    assert(model.getVectors.keySet == seen)
    model.getVectors.values.foreach(v => assert(v.length == 8 && v.forall(x => !x.isNaN)))
  }

  /** 3000 seeded length-2 walks over 50 nodes: every position has exactly
    * one context, so each step trains a single (context, target) pair.
    */
  private lazy val pairWalks = {
    val rng = new SplittableRandom(9L)
    spark.sparkContext.parallelize(
      Seq.fill(3000)(Array(rng.nextInt(50), rng.nextInt(50))), 4)
  }

  /** Recorded from the per-pair SGNS step that trained one (context,
    * target) pair at a time, each with its own negatives. Where a window
    * has one context, sharing a position's negatives across its window
    * changes nothing, so the vectors must stay bit for bit the same.
    */
  private val PairWalksHash = 0x00474e95

  test("one-context windows train exactly as the per-pair SGNS step") {
    val vectors = Word2VecTrainer.train(pairWalks, dim = 8, numPartitions = 1, seed = 9L)
      .getVectors.toSeq.sortBy(_._1.toInt)
    val hash = MurmurHash3.orderedHash(vectors.iterator.map { case (id, v) =>
      (id, MurmurHash3.arrayHash(v.map(java.lang.Float.floatToRawIntBits)))
    })
    assert(hash == PairWalksHash, f"new constant: 0x$hash%08x")
  }
}
