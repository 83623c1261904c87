package repro.sampler

import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.{CSRGraph, DatasetConfig}

/** Per-partition mutable sampling counters, flushed into Spark
  * accumulators when the partition's task completes (see
  * UniNet.generateWalksPrepared).
  * `trials`/`accepts` give the measured acceptance ratio of
  * rejection-style samplers and M-H (Table II); `preAccepts` counts
  * KnightKing's accepts that skipped the weight. `initNanos` and
  * `initCount` separate M-H's lazy chain inits out of the walking phase
  * (Ti vs Tw in Table VI). `localBytes` is the storage this sampler
  * allocated outside the prepared factory: the M-H LAST_x array when this
  * sampler was the first its factory created for the graph and model (the
  * samplers that share it add nothing).
  */
final class LocalStats {
  var steps: Long = 0
  var trials: Long = 0
  var accepts: Long = 0
  var preAccepts: Long = 0
  var initNanos: Long = 0
  var initCount: Long = 0
  var localBytes: Long = 0
}

/** A stateful edge sampler bound to one (graph, model) pair, owned by one
  * walker-executing partition. `sample` returns the chosen *global edge
  * index* (the next step is its destination), or -1 when the state admits
  * no edge and the walk must terminate. A node of degree 0 returns -1 and
  * counts nothing; any other call counts one step and asks `draw`.
  */
abstract class EdgeSampler(g: CSRGraph) {
  final val stats = new LocalStats

  final def sample(s: WalkState, rng: SplittableRandom): Int = {
    val d = g.degree(s.cur)
    if (d == 0) return -1
    stats.steps += 1
    draw(s, d, rng)
  }

  /** One draw at state `s`, whose node has degree `d` > 0. */
  protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int
}

/** Factory for [[EdgeSampler]]s. `prepare` runs once on the driver and
  * builds the shared immutable structures (alias tables over static
  * weights, precomputed per-state tables, budget assignments); its wall
  * time is the initialization cost Ti of Tables VI/VII. The prepared
  * factory is broadcast; `create` then instantiates the cheap per-partition
  * mutable part.
  */
trait SamplerFactory extends Serializable {
  def name: String

  /** Driver-side preparation; `parallel = false` emulates the
    * single-threaded reference implementations in the baseline runs.
    */
  def prepare(g: CSRGraph, model: RandomWalkModel, parallel: Boolean): Unit = ()

  def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler

  /** Bytes of sampler-owned state at *this* graph's scale (excludes the
    * CSR itself); the paper-scale OOM accounting lives in [[MemoryModel]].
    */
  def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long

  /** Sampler bytes at the paper's scale of `cfg` (its [[MemoryModel]]
    * formula); `freeBytes` is the server memory left after the graph.
    */
  def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long
}

/** `length` indices into adjacency slices or alias tables, in 2-byte
  * chars, or in 4-byte ints when `wide`: M-H's [[ChainStore]] and the
  * [[AliasStore]]'s alias indices. Both are narrow while no slice or table
  * is longer than [[IndexArray.MaxCharDegree]].
  */
class IndexArray(val length: Int, wide: Boolean) extends Serializable {
  protected final val chars: Array[Char] = if (wide) null else new Array[Char](length)
  protected final val ints: Array[Int] = if (wide) new Array[Int](length) else null

  /** The backing array: an `Array[Char]`, or an `Array[Int]` when wide. */
  final def array: AnyRef = if (chars != null) chars else ints

  /** Bytes of the backing array's entries. */
  final def bytes: Long = (if (chars != null) 2L else 4L) * length

  final def apply(x: Int): Int = if (chars != null) chars(x) else ints(x)

  final def update(x: Int, v: Int): Unit = if (chars != null) chars(x) = v.toChar else ints(x) = v
}

object IndexArray {
  /** The largest degree whose offsets fit a 2-byte [[ChainStore]] entry
    * beside its two reserved codes (and so an alias table's indices).
    */
  final val MaxCharDegree: Int = Char.MaxValue + 1 - ChainStore.First

  /** True when no size exceeds [[MaxCharDegree]]: 2-byte entries suffice. */
  def charsHold(sizes: Iterator[Int]): Boolean = sizes.forall(_ <= MaxCharDegree)

  def charsHold(g: CSRGraph): Boolean = charsHold(Iterator.range(0, g.numNodes).map(g.degree))
}

private[sampler] object SamplerUtil {

  /** O(deg) direct draw from the dynamic weights of N(s.cur): the direct
    * edge sampler's core, also every other sampler's fallback when its
    * fast path cannot make progress. Returns a global edge index or -1.
    */
  def directDraw(g: CSRGraph, model: RandomWalkModel, s: WalkState,
                 rng: SplittableRandom): Int = {
    val v = s.cur
    val lo = g.offset(v); val hi = lo + g.degree(v)
    var total = 0.0
    var e = lo
    while (e < hi) { total += model.calculateWeight(g, s, e); e += 1 }
    if (total <= 0) return -1
    var r = rng.nextDouble() * total
    e = lo
    while (e < hi) {
      r -= model.calculateWeight(g, s, e)
      if (r <= 0) return e
      e += 1
    }
    hi - 1
  }

  /** Dynamic weights of N(v) under state `s` as an array (alias builds). */
  def dynamicWeights(g: CSRGraph, model: RandomWalkModel, s: WalkState): Array[Double] = {
    val lo = g.offset(s.cur); val d = g.degree(s.cur)
    val w = new Array[Double](d)
    var j = 0
    while (j < d) { w(j) = model.calculateWeight(g, s, lo + j); j += 1 }
    w
  }

  /** Run `body(v)` for every node, optionally on the common ForkJoin pool —
    * scala-parallel-collections is not on the offline classpath, so driver
    * parallelism uses Java streams.
    */
  def forEachNode(numNodes: Int, parallel: Boolean)(body: Int => Unit): Unit = {
    val s = java.util.stream.IntStream.range(0, numNodes)
    (if (parallel) s.parallel() else s).forEach(v => body(v))
  }
}
