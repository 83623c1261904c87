package repro.core

import repro.graph.CSRGraph

/** The paper's sampler manager with the 2D data layout (§IV-C, Fig. 4).
  *
  * Each M-H edge sampler's whole state is one variable, LAST_x. States are
  * decomposed into *position* (current node) and *affixture* (an index
  * within that node's bucket), so looking a sampler up by state is two
  * array indexings — O(1), versus O(log #state) for a balanced tree over
  * opaque states. Buckets are allocated lazily on first touch, so memory
  * grows to at most one int per *visited* state (4 * #state bytes total).
  *
  * An instance is owned by one walk task at a time and is single-threaded,
  * mirroring the paper's per-thread walker assignment. Between tasks it is
  * recycled (see [[repro.sampler.MHSamplerFactory]]): `reset` puts every
  * chain back to uninitialized while the buckets keep their storage, so an
  * executor holds at most one manager per concurrently running task.
  */
final class SamplerManager(val graph: CSRGraph, private var bucketSizeOf: Int => Int) {
  private val buckets = new Array[Array[Int]](graph.numNodes)
  private var allocatedSlots: Long = 0L
  private var reportedSlots: Long = 0L

  /** The LAST_x bucket of node v; slots start at -1 (uninitialized). */
  def bucket(v: Int): Array[Int] = {
    var b = buckets(v)
    if (b == null) {
      val n = bucketSizeOf(v)
      b = new Array[Int](n)
      java.util.Arrays.fill(b, -1)
      buckets(v) = b
      allocatedSlots += n
    }
    b
  }

  /** Re-arms the manager for a new owner whose layout is `sizeOf`: every
    * allocated slot goes back to -1, so each chain restarts exactly as in a
    * fresh manager. Returns false when an allocated bucket does not have
    * the size `sizeOf` gives it (a different model layout); the manager is
    * then only partly reset and must be dropped.
    */
  def reset(sizeOf: Int => Int): Boolean = {
    var v = 0
    while (v < buckets.length) {
      val b = buckets(v)
      if (b != null) {
        if (b.length != sizeOf(v)) return false
        java.util.Arrays.fill(b, -1)
      }
      v += 1
    }
    bucketSizeOf = sizeOf
    true
  }

  /** Bytes of LAST_x storage allocated so far (4 bytes per slot). */
  def memoryBytes: Long = 4L * allocatedSlots

  /** Bytes allocated since the previous call (or since construction); a
    * recycled manager reports each byte once, to the task that allocated it.
    */
  def reportNewBytes(): Long = {
    val n = allocatedSlots - reportedSlots
    reportedSlots = allocatedSlots
    4L * n
  }
}
