package repro.sampler

import java.util.SplittableRandom

/** Alias tables (Walker's method [34]: O(1) draws from a fixed discrete
  * distribution after an O(n) build) for many distributions in flat
  * arrays, with no object per table: table t's entries are
  * [offsets(t), offsets(t + 1)) of `prob` (`Float`) and `alias` (an
  * [[IndexArray]] of 2-byte chars while no table is longer than
  * [[IndexArray.MaxCharDegree]], else 4-byte ints), 6 or 8 bytes per entry
  * and 4 per table. Each user numbers its own tables: the alias sampler one
  * per slot, the static proposal one per node, word2vec's negatives one.
  * A table with no positive weight is empty and draws -1.
  */
final class AliasStore private (val offsets: Array[Int], val prob: Array[Float], val alias: IndexArray)
    extends Serializable {
  def size(t: Int): Int = offsets(t + 1) - offsets(t)

  def bytes: Long = 4L * (offsets.length + prob.length) + alias.bytes

  /** An index in [0, size(t)) drawn as table t's weights, or -1 when it is empty. */
  def draw(t: Int, rng: SplittableRandom): Int = {
    val lo = offsets(t)
    val n = offsets(t + 1) - lo
    if (n == 0) return -1
    val i = rng.nextInt(n)
    if (rng.nextDouble() < prob(lo + i)) i else alias(lo + i)
  }

  /** Vose's stable alias construction of table t from its `size(t)`
    * weights, computed in `Double`. Weights must be >= 0 with a positive
    * sum; a zero weight gets probability 0 (its entry always forwards to
    * an alias). Tables of distinct indices may be built concurrently.
    */
  def build(t: Int, weights: Array[Double]): Unit = {
    val n = weights.length
    val lo = offsets(t)
    require(n == size(t), s"table $t holds ${size(t)} entries, not $n")
    var sum = 0.0
    var i = 0
    while (i < n) { require(weights(i) >= 0, "negative weight"); sum += weights(i); i += 1 }
    require(sum > 0, "an alias table needs a positive weight")
    val scaled = weights.map(_ * n / sum)
    val small = new Array[Int](n); var nSmall = 0
    val large = new Array[Int](n); var nLarge = 0
    i = 0
    while (i < n) {
      if (scaled(i) < 1.0) { small(nSmall) = i; nSmall += 1 } else { large(nLarge) = i; nLarge += 1 }
      i += 1
    }
    def set(j: Int, p: Double, a: Int): Unit = { prob(lo + j) = p.toFloat; alias(lo + j) = a }
    while (nSmall > 0 && nLarge > 0) {
      nSmall -= 1; val s = small(nSmall)
      val l = large(nLarge - 1)
      set(s, scaled(s), l)
      scaled(l) = (scaled(l) + scaled(s)) - 1.0
      if (scaled(l) < 1.0) { nLarge -= 1; small(nSmall) = l; nSmall += 1 }
    }
    while (nLarge > 0) { nLarge -= 1; set(large(nLarge), 1.0, large(nLarge)) }
    while (nSmall > 0) { nSmall -= 1; set(small(nSmall), 1.0, small(nSmall)) }
  }
}

object AliasStore {
  /** The longest array HotSpot allocates. */
  private val MaxEntries = Int.MaxValue - 8

  /** Bytes of one entry: a `Float` probability and a char or int alias. */
  def entryBytes(wide: Boolean): Long = if (wide) 8L else 6L

  /** Bytes of `tables` tables of `entries` entries in all, int-indexed when `wide`. */
  def bytes(tables: Long, entries: Long, wide: Boolean): Long = 4L * (tables + 1) + entryBytes(wide) * entries

  /** An unbuilt store whose table t has `sizes(t)` entries; `what` names
    * the tables when their entries exceed one JVM array.
    */
  def apply(sizes: Array[Int], what: => String): AliasStore = {
    val offsets = sizes.scanLeft(0L)(_ + _)
    require(offsets.last <= MaxEntries, s"$what need ${offsets.last} alias entries, more than one JVM array holds")
    val n = offsets.last.toInt
    new AliasStore(offsets.map(_.toInt), new Array[Float](n), new IndexArray(n, !IndexArray.charsHold(sizes.iterator)))
  }
}
