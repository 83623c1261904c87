package repro.core

import org.apache.spark.mllib.feature.Word2Vec

import repro.SparkSpec
import repro.graph.GraphGen
import repro.model.DeepWalk
import repro.sampler.{HighWeightInit, MHSamplerFactory, SamplerFactory}

/** Quality gate of the learning phase: on a planted-partition graph, a
  * node's nearest neighbour in embedding space should share its block.
  * MLlib's `Word2Vec` (skip-gram, hierarchical softmax) trained on the
  * same corpus with the same settings is the reference the int-native
  * trainer must match or beat.
  */
class LearnQualityGateSpec extends SparkSpec {

  private val Blocks = 5
  private val Dim = 16
  private val Window = 5
  private val Iterations = 1
  private val Seed = 3L

  private lazy val g = GraphGen.plantedPartition(
    numNodes = 1000, blocks = Blocks, pIn = 0.06, pOut = 0.004, seed = Seed)

  private lazy val corpus = {
    val (rdd, _) = UniNet.generateWalksPrepared(
      spark, spark.sparkContext.broadcast(g), new DeepWalk,
      spark.sparkContext.broadcast(new MHSamplerFactory(HighWeightInit()): SamplerFactory),
      2, 20, 4, Seed)
    rdd.cache()
  }

  /** Share of nodes whose cosine-nearest other node is in the same block. */
  private def sameBlockRate(vectors: Map[String, Array[Float]]): Double = {
    val ids = vectors.keys.map(_.toInt).toArray.sorted
    val unit = ids.map { v =>
      val x = vectors(v.toString).map(_.toDouble)
      val n = math.sqrt(x.map(a => a * a).sum)
      x.map(_ / n)
    }
    val hits = ids.indices.count { i =>
      val nearest = ids.indices.filter(_ != i)
        .maxBy(j => unit(i).indices.map(k => unit(i)(k) * unit(j)(k)).sum)
      ids(i) % Blocks == ids(nearest) % Blocks
    }
    hits.toDouble / ids.length
  }

  test("int-native SGNS matches or beats MLlib word2vec on same-block nearest neighbours") {
    val reference = new Word2Vec()
      .setVectorSize(Dim).setNumPartitions(1).setNumIterations(Iterations)
      .setWindowSize(Window).setMinCount(0).setSeed(Seed)
      .fit(corpus.map(_.map(_.toString).toSeq))
    val trained = Word2VecTrainer.train(corpus, dim = Dim, numPartitions = 1,
                                        iterations = Iterations, window = Window, seed = Seed)
    val ref = sameBlockRate(reference.getVectors)
    val ours = sameBlockRate(trained.getVectors)
    info(f"same-block nearest-neighbour rate: SGNS $ours%.3f, MLlib $ref%.3f, chance ${1.0 / Blocks}%.3f")
    assert(trained.getVectors.size == g.numNodes)
    assert(ours >= ref)
    assert(ref > 2.0 / Blocks && ours > 2.0 / Blocks)
  }
}
