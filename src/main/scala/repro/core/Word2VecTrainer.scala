package repro.core

import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.mllib.feature.Word2VecModel
import org.apache.spark.rdd.RDD

import repro.sampler.AliasStore

/** The learning phase of the random-walk NRL pipeline: skip-gram with
  * negative sampling (SGNS, Mikolov et al. 2013) over the walk corpus,
  * trained as the community word2vec the paper reuses [13] trains it —
  * on one node, by `numPartitions` threads that update two shared
  * `|V| × dim` float matrices without locks (Hogwild!, Recht et al. 2011).
  * The paper's framework treats this phase as a black box shared by all
  * engine variants; `numPartitions = 1` runs one thread, deterministically
  * in `seed`, and emulates the single-threaded reference implementations
  * in baseline runs.
  *
  * word2vec.c's rules are fixed constants, not options: a reduced window
  * (each position trains on a uniformly drawn `window - b` neighbours per
  * side), 5 negatives drawn from counts^0.75, a linearly decaying learning
  * rate and a precomputed sigmoid table. Windows do not cross walk
  * boundaries. Unlike word2vec.c, each position draws its negatives once
  * and shares them across every context of its window, as in the
  * minibatched SGNS of Ji et al. 2016 ("Parallelizing Word2Vec in Shared
  * and Distributed Memory"): each output row is then written once per
  * position and target, and each context's input row once per position,
  * instead of once per (context, target) pair. On a power-law corpus,
  * where every thread's negatives hit the same hub rows, that cuts the
  * cache-line traffic between threads. Where a window has one context,
  * the step is word2vec.c's.
  *
  * The learning rate decays with the tokens all threads have trained, read
  * from a shared counter once per walk. It starts at word2vec.c's 0.025
  * when the corpus gives each node at least 200 token passes
  * (`iterations × tokens / |V|`; the paper's 10 × 80 walks give 810).
  * Smaller corpora start it at `5 / passes`, at most 0.25, so that each
  * node still gets the same total step: from 0.025, SGNS leaves the nodes
  * of a planted-partition graph at chance after 1 × 20 or 2 × 20 walks per
  * node, where MLlib's hierarchical softmax already separates some blocks.
  * The returned vectors are centred (their mean is subtracted).
  *
  * Scale bound: the corpus is collected to the driver as `Array[Int]`
  * walks, 4 bytes per token (0.84 MB for 1 × 20 walks on Flickr-lite,
  * about 258 MB for the paper's 10 × 80 walks on full Flickr). Rows are
  * indexed by node id, so |V| is the largest id in the corpus plus one.
  */
object Word2VecTrainer {

  private val Negatives = 5
  /** word2vec.c's skip-gram learning rate: the floor of the start rate. */
  private val BaseAlpha = 0.025
  private val MaxAlpha = 0.25
  /** Start rate × token passes per node that a small corpus is raised to. */
  private val StepPerNode = 5.0
  private val MaxExp = 6
  private val ExpTableSize = 1000

  /** sigmoid(x) for x in [-MaxExp, MaxExp), in `ExpTableSize` steps. */
  private val sigmoidTable: Array[Float] = Array.tabulate(ExpTableSize) { i =>
    val e = math.exp((2.0 * i / ExpTableSize - 1) * MaxExp)
    (e / (e + 1)).toFloat
  }

  /** Learns one `dim`-vector per node that occurs in `walks` (MLlib's
    * `minCount = 0` vocabulary); the model's words are the node ids as
    * strings.
    */
  def train(
      walks: RDD[Array[Int]],
      numPartitions: Int,
      dim: Int = 16,
      iterations: Int = 1,
      window: Int = 5,
      seed: Long = 42L,
  ): Word2VecModel = {
    val corpus = walks.collect()
    var numIds = 0
    for (w <- corpus; v <- w) numIds = math.max(numIds, v + 1)
    val counts = new Array[Long](numIds)
    for (w <- corpus; v <- w) counts(v) += 1
    val tokens = counts.sum
    require(tokens > 0, "the walk corpus is empty")

    val vocab = counts.count(_ > 0)
    val startAlpha = math.min(MaxAlpha,
      math.max(BaseAlpha, StepPerNode * vocab / (iterations.toDouble * tokens))).toFloat
    val negatives = AliasStore(Array(numIds), "word2vec's negatives")
    negatives.build(0, counts.map(c => math.pow(c.toDouble, 0.75)))
    val rng = new SplittableRandom(seed)
    val syn0 = Array.fill(numIds * dim)((rng.nextDouble().toFloat - 0.5f) / dim)
    val syn1 = new Array[Float](numIds * dim)
    val threads = math.max(1, numPartitions)
    val threadRngs = Array.fill(threads)(rng.split())
    val trained = new AtomicLong()
    val totalWork = iterations.toLong * tokens

    java.util.stream.IntStream.range(0, threads).parallel().forEach { t =>
      val slice = corpus.slice((corpus.length.toLong * t / threads).toInt,
                               (corpus.length.toLong * (t + 1) / threads).toInt)
      new SliceTrainer(slice, syn0, syn1, dim, window, negatives, threadRngs(t),
                       startAlpha, trained, totalWork).run(iterations)
    }

    // Centre the vectors, as in Mu & Viswanath 2018: after a short corpus,
    // rarely seen nodes still point along the one direction every positive
    // update pushes toward, so uncentred cosine similarity ranks node pairs
    // by how often they were seen.
    val mean = new Array[Float](dim)
    for (v <- 0 until numIds if counts(v) > 0; k <- 0 until dim) mean(k) += syn0(v * dim + k) / vocab
    val vectors = (0 until numIds).iterator.filter(counts(_) > 0)
      .map(v => v.toString -> Array.tabulate(dim)(k => syn0(v * dim + k) - mean(k)))
      .toMap
    new Word2VecModel(vectors)
  }

  /** One thread's share of the corpus. `syn0` (input vectors) and `syn1`
    * (output vectors) are shared with the other threads; `trained` counts
    * the tokens all threads have trained and drives the learning rate.
    */
  private final class SliceTrainer(
      walks: Array[Array[Int]],
      syn0: Array[Float],
      syn1: Array[Float],
      dim: Int,
      window: Int,
      negatives: AliasStore,
      rng: SplittableRandom,
      startAlpha: Float,
      trained: AtomicLong,
      totalWork: Long,
  ) {
    /** `syn0` offsets of the current position's contexts. */
    private val context = new Array[Int](2 * window)
    /** Each context's accumulated input-vector update, `dim` floats apart. */
    private val contextErr = new Array[Float](2 * window * dim)
    /** The current target's accumulated output-vector update. */
    private val targetErr = new Array[Float](dim)
    private var alpha = startAlpha

    def run(iterations: Int): Unit = {
      var it = 0
      while (it < iterations) {
        var i = 0
        while (i < walks.length) { trainWalk(walks(i)); i += 1 }
        it += 1
      }
    }

    private def trainWalk(w: Array[Int]): Unit = {
      val done = trained.getAndAdd(w.length)
      alpha = startAlpha * math.max(1e-4f, 1 - done.toFloat / (totalWork + 1))
      var pos = 0
      while (pos < w.length) {
        val reach = window - rng.nextInt(window)
        val hi = math.min(w.length - 1, pos + reach)
        var contexts = 0
        var c = math.max(0, pos - reach)
        while (c <= hi) {
          if (c != pos) { context(contexts) = w(c) * dim; contexts += 1 }
          c += 1
        }
        if (contexts > 0) trainPosition(w(pos), contexts)
        pos += 1
      }
    }

    /** One SGNS step for a position: each of the first `contexts` input
      * vectors in `context` predicts `word` against the same `Negatives`
      * noise nodes. A target's output vector takes the summed update of
      * all contexts after its last one; the input vectors take theirs
      * after the last target.
      */
    private def trainPosition(word: Int, contexts: Int): Unit = {
      java.util.Arrays.fill(contextErr, 0, contexts * dim, 0f)
      var d = 0
      while (d <= Negatives) {
        val target = if (d == 0) word else negatives.draw(0, rng)
        if (d == 0 || target != word) {
          val label = if (d == 0) 1f else 0f
          val l2 = target * dim
          java.util.Arrays.fill(targetErr, 0f)
          var j = 0
          while (j < contexts) {
            val l1 = context(j)
            val e = j * dim
            var f = 0f
            var k = 0
            while (k < dim) { f += syn0(l1 + k) * syn1(l2 + k); k += 1 }
            val g =
              if (f >= MaxExp) (label - 1) * alpha
              else if (f <= -MaxExp) label * alpha
              else (label - sigmoidTable(((f + MaxExp) * (ExpTableSize / (2f * MaxExp))).toInt)) * alpha
            k = 0
            while (k < dim) {
              contextErr(e + k) += g * syn1(l2 + k)
              targetErr(k) += g * syn0(l1 + k)
              k += 1
            }
            j += 1
          }
          var k = 0
          while (k < dim) { syn1(l2 + k) += targetErr(k); k += 1 }
        }
        d += 1
      }
      var j = 0
      while (j < contexts) {
        val l1 = context(j)
        val e = j * dim
        var k = 0
        while (k < dim) { syn0(l1 + k) += contextErr(e + k); k += 1 }
        j += 1
      }
    }
  }
}
