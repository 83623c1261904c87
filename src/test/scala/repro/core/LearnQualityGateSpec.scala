package repro.core

import java.util.SplittableRandom

import org.apache.spark.mllib.feature.{Word2Vec, Word2VecModel}
import org.apache.spark.rdd.RDD

import repro.SparkSpec
import repro.graph.{CSRGraph, GraphGen}
import repro.model.DeepWalk
import repro.sampler.{HighWeightInit, MHSamplerFactory, SamplerFactory}

/** Quality gate of the learning phase, on a planted-partition graph:
  *  - a node's nearest neighbour in embedding space should share its block;
  *  - with a seeded 10 % of the edges held out before walking, a held-out
  *    edge should outrank a non-edge by cosine similarity (link AUC).
  * MLlib's `Word2Vec` (skip-gram, hierarchical softmax) trained on the
  * same corpus with the same settings is the reference the int-native
  * trainer must match or beat, on one thread and on four Hogwild! threads.
  */
class LearnQualityGateSpec extends SparkSpec {

  private val Blocks = 5
  private val Dim = 16
  private val Window = 5
  private val Iterations = 1
  private val Seed = 3L
  private val HeldOutShare = 0.1

  private lazy val g = GraphGen.plantedPartition(
    numNodes = 1000, blocks = Blocks, pIn = 0.06, pOut = 0.004, seed = Seed)

  private def walk(graph: CSRGraph): RDD[Array[Int]] = {
    val (rdd, _) = UniNet.generateWalksPrepared(
      spark, spark.sparkContext.broadcast(graph), new DeepWalk,
      spark.sparkContext.broadcast(new MHSamplerFactory(HighWeightInit()): SamplerFactory),
      2, 20, 4, Seed)
    rdd.cache()
  }

  private def mllib(walks: RDD[Array[Int]]): Word2VecModel =
    new Word2Vec()
      .setVectorSize(Dim).setNumPartitions(1).setNumIterations(Iterations)
      .setWindowSize(Window).setMinCount(0).setSeed(Seed)
      .fit(walks.map(_.map(_.toString).toSeq))

  private def sgns(walks: RDD[Array[Int]], threads: Int): Word2VecModel =
    Word2VecTrainer.train(walks, dim = Dim, numPartitions = threads,
                          iterations = Iterations, window = Window, seed = Seed)

  private lazy val corpus = walk(g)
  private lazy val reference = mllib(corpus)

  private def unit(x: Array[Float]): Array[Double] = {
    val n = math.sqrt(x.map(a => a.toDouble * a).sum)
    x.map(_ / n)
  }

  private def cosine(a: Array[Double], b: Array[Double]): Double =
    a.indices.map(k => a(k) * b(k)).sum

  /** Share of nodes whose cosine-nearest other node is in the same block. */
  private def sameBlockRate(vectors: Map[String, Array[Float]]): Double = {
    val ids = vectors.keys.map(_.toInt).toArray.sorted
    val units = ids.map(v => unit(vectors(v.toString)))
    val hits = ids.indices.count { i =>
      val nearest = ids.indices.filter(_ != i).maxBy(j => cosine(units(i), units(j)))
      ids(i) % Blocks == ids(nearest) % Blocks
    }
    hits.toDouble / ids.length
  }

  private def sameBlockGate(threads: Int): Unit = {
    val trained = sgns(corpus, threads)
    val ref = sameBlockRate(reference.getVectors)
    val ours = sameBlockRate(trained.getVectors)
    info(f"same-block nearest-neighbour rate: SGNS $ours%.3f, MLlib $ref%.3f, chance ${1.0 / Blocks}%.3f")
    assert(trained.getVectors.size == g.numNodes)
    assert(ours >= ref)
    assert(ref > 2.0 / Blocks && ours > 2.0 / Blocks)
  }

  test("int-native SGNS matches or beats MLlib word2vec on same-block nearest neighbours") {
    sameBlockGate(threads = 1)
  }

  test("int-native SGNS on 4 Hogwild threads matches or beats MLlib word2vec on same-block nearest neighbours") {
    sameBlockGate(threads = 4)
  }

  private lazy val edges: IndexedSeq[(Int, Int)] =
    for (u <- 0 until g.numNodes; e <- g.offset(u) until g.offset(u + 1) if u < g.dst(e))
      yield (u, g.dst(e))

  private lazy val (heldOut, kept) = {
    val rng = new SplittableRandom(Seed)
    edges.partition(_ => rng.nextDouble() < HeldOutShare)
  }

  /** As many seeded node pairs that are not edges of `g` as there are held-out edges. */
  private lazy val nonEdges: Seq[(Int, Int)] = {
    val rng = new SplittableRandom(Seed + 1)
    val edgeSet = edges.toSet
    Iterator.continually((rng.nextInt(g.numNodes), rng.nextInt(g.numNodes)))
      .filter { case (u, v) => u != v && !edgeSet((math.min(u, v), math.max(u, v))) }
      .take(heldOut.length).toSeq
  }

  private lazy val linkCorpus = walk(CSRGraph.fromUndirectedEdges(
    g.numNodes, kept.map(_._1).toArray, kept.map(_._2).toArray, Array.fill(kept.length)(1f)))
  private lazy val linkReference = mllib(linkCorpus)

  /** Chance that a held-out edge outranks a non-edge by cosine (ties count half). */
  private def linkAUC(vectors: Map[String, Array[Float]]): Double = {
    def scores(pairs: Seq[(Int, Int)]) =
      pairs.map { case (u, v) => cosine(unit(vectors(u.toString)), unit(vectors(v.toString))) }
    val (pos, neg) = (scores(heldOut), scores(nonEdges))
    pos.map(p => neg.map(n => if (p > n) 1.0 else if (p == n) 0.5 else 0.0).sum).sum /
      (pos.length.toDouble * neg.length)
  }

  for (threads <- Seq(1, 4)) {
    test(s"int-native SGNS on $threads thread(s) beats MLlib word2vec and 0.7 on held-out link AUC") {
      val ref = linkAUC(linkReference.getVectors)
      val ours = linkAUC(sgns(linkCorpus, threads).getVectors)
      info(f"held-out link AUC over ${heldOut.length} edges: SGNS $ours%.3f, MLlib $ref%.3f")
      assert(ours >= ref)
      assert(ours > 0.7)
    }
  }
}
