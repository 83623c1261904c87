package repro.graph

import java.util.Arrays

/** Compressed-sparse-row network storage (UniNet §IV-C, "Network Storage").
  *
  * The paper stores the network as a node list + edge list in CSR form,
  * with an extra weight per edge entry and, for heterogeneous networks, a
  * node-type array of size |V|. We mirror that layout exactly:
  *
  *  - `offsets(v) .. offsets(v+1)` delimits node v's adjacency slice,
  *  - `neighbors` holds destination node ids, **sorted** within each slice
  *    so that `hasEdge` / `neighborIndexOf` search it in log2(deg) halving
  *    steps with no data-dependent branch (node2vec's dynamic-weight
  *    computation makes this search on nearly every step, §III-A),
  *  - `weights` holds the static edge weight w aligned with `neighbors`,
  *  - `nodeTypes` is `null` for homogeneous networks (all nodes type 0).
  *
  * An "edge index" `e` throughout this codebase is a global index into
  * `neighbors`/`weights`; the source node is implied by the slice it lies
  * in, so samplers always carry the current node alongside it.
  *
  * The structure is immutable and serializable — UniNet-on-Spark broadcasts
  * one instance to all partitions and walkers read it concurrently.
  */
final class CSRGraph(
    val numNodes: Int,
    val offsets: Array[Int],
    val neighbors: Array[Int],
    val weights: Array[Float],
    val nodeTypes: Array[Byte],
    val numTypes: Int,
) extends Serializable {
  require(offsets.length == numNodes + 1, "offsets must have numNodes+1 entries")
  require(neighbors.length == weights.length, "neighbors/weights misaligned")
  require(offsets(numNodes) == neighbors.length, "last offset must equal edge count")

  /** Number of directed adjacency entries (2x the undirected edge count). */
  def numDirectedEdges: Int = neighbors.length

  /** Undirected edge count, matching the paper's |E| convention when the
    * adjacency is symmetric.
    */
  def numUndirectedEdges: Long = neighbors.length.toLong / 2

  @inline def offset(v: Int): Int = offsets(v)
  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  @inline def dst(e: Int): Int = neighbors(e)
  @inline def weight(e: Int): Float = weights(e)

  def isHeterogeneous: Boolean = nodeTypes != null

  @inline def nodeType(v: Int): Int = if (nodeTypes == null) 0 else nodeTypes(v).toInt

  /** Directed edge type Φ(v, u) as an ordered node-type pair id in
    * [0, numTypes²) — the granularity edge2vec's transition matrix M needs.
    */
  @inline def edgeType(srcNode: Int, e: Int): Int =
    nodeType(srcNode) * numTypes + nodeType(dst(e))

  /** Index of u within N(v)'s sorted slice, or -1 if (v,u) is not an edge.
    * When a multigraph slice holds u more than once, the index of the last
    * copy.
    *
    * Each halving step keeps the upper half when its first entry is ≤ u,
    * so `b` ends on the last entry ≤ u after log2(deg) steps. The step's
    * only condition picks an offset, which the JIT can compile to a
    * conditional move, so the loop need not branch on the data.
    */
  def neighborIndexOf(v: Int, u: Int): Int = {
    val lo = offsets(v)
    var n = offsets(v + 1) - lo
    if (n == 0) return -1
    var b = lo
    while (n > 1) {
      val half = n >>> 1
      if (neighbors(b + half) <= u) b += half
      n -= half
    }
    if (neighbors(b) == u) b - lo else -1
  }

  def hasEdge(v: Int, u: Int): Boolean = neighborIndexOf(v, u) >= 0

  /** Per-(node, type) neighbor counts, |V| x numTypes, built on demand.
    * Fairwalk's group normalizer |K| (Eq. 5) reads this in O(1).
    */
  lazy val neighborTypeCounts: Array[Int] = {
    val c = new Array[Int](numNodes * numTypes)
    var v = 0
    while (v < numNodes) {
      var e = offsets(v)
      while (e < offsets(v + 1)) { c(v * numTypes + nodeType(neighbors(e))) += 1; e += 1 }
      v += 1
    }
    c
  }

  @inline def neighborTypeCount(v: Int, t: Int): Int =
    if (!isHeterogeneous) { if (t == 0) degree(v) else 0 }
    else neighborTypeCounts(v * numTypes + t)

  /** Approximate resident bytes of this CSR instance (graph-storage term of
    * the memory model used for the paper-scale OOM accounting).
    */
  def storageBytes: Long =
    4L * offsets.length + 4L * neighbors.length + 4L * weights.length +
      (if (nodeTypes == null) 0L else nodeTypes.length.toLong)

  def meanDegree: Double = numDirectedEdges.toDouble / numNodes
}

object CSRGraph {

  /** Build a CSR graph from a *directed* edge array. Neighbor slices are
    * sorted by destination id; parallel duplicate edges are kept as-is
    * (multigraph).
    */
  def fromEdges(
      numNodes: Int,
      srcs: Array[Int],
      dsts: Array[Int],
      ws: Array[Float],
      nodeTypes: Array[Byte] = null,
      numTypes: Int = 1,
  ): CSRGraph = build(numNodes, srcs, dsts, ws, nodeTypes, numTypes, merge = false)

  /** Symmetrize an undirected edge list into directed adjacency and build
    * the CSR: each pair contributes both directions with the same weight.
    * This is where graph input is deduplicated: a pair listed more than
    * once, in either orientation, becomes one edge in each of its two
    * slices, and both keep the first weight of the sorted copies, which for
    * non-negative weights is the lowest. A self-loop (u, u) keeps one entry.
    */
  def fromUndirectedEdges(
      numNodes: Int,
      us: Array[Int],
      vs: Array[Int],
      ws: Array[Float],
      nodeTypes: Array[Byte] = null,
      numTypes: Int = 1,
  ): CSRGraph = {
    val m = us.length
    val s = new Array[Int](2 * m); val d = new Array[Int](2 * m); val w = new Array[Float](2 * m)
    var i = 0
    while (i < m) {
      s(i) = us(i); d(i) = vs(i); w(i) = ws(i)
      s(m + i) = vs(i); d(m + i) = us(i); w(m + i) = ws(i)
      i += 1
    }
    build(numNodes, s, d, w, nodeTypes, numTypes, merge = true)
  }

  /** Counting-sort the directed edges into slices, sort each slice by
    * (dst, weight bits), then unpack; with `merge`, an entry whose dst
    * repeats the one before it in its slice is dropped and the offsets
    * close up behind it.
    */
  private def build(
      numNodes: Int,
      srcs: Array[Int],
      dsts: Array[Int],
      ws: Array[Float],
      nodeTypes: Array[Byte],
      numTypes: Int,
      merge: Boolean,
  ): CSRGraph = {
    require(srcs.length == dsts.length && dsts.length == ws.length, "edge arrays misaligned")
    val m = srcs.length
    val offsets = new Array[Int](numNodes + 1)
    var i = 0
    while (i < m) { offsets(srcs(i) + 1) += 1; i += 1 }
    i = 0
    while (i < numNodes) { offsets(i + 1) += offsets(i); i += 1 }
    val cursor = java.util.Arrays.copyOf(offsets, numNodes)
    // Pack (dst, weightBits) into a long so each slice sorts without boxing.
    val packed = new Array[Long](m)
    i = 0
    while (i < m) {
      val pos = cursor(srcs(i)); cursor(srcs(i)) = pos + 1
      packed(pos) = (dsts(i).toLong << 32) | (java.lang.Float.floatToRawIntBits(ws(i)).toLong & 0xffffffffL)
      i += 1
    }
    val neighbors = new Array[Int](m)
    val weights = new Array[Float](m)
    var out = 0
    i = 0
    var v = 0
    while (v < numNodes) {
      val end = offsets(v + 1)
      Arrays.sort(packed, i, end)
      val first = out
      while (i < end) {
        val u = (packed(i) >>> 32).toInt
        if (!merge || out == first || neighbors(out - 1) != u) {
          neighbors(out) = u
          weights(out) = java.lang.Float.intBitsToFloat(packed(i).toInt)
          out += 1
        }
        i += 1
      }
      offsets(v + 1) = out
      v += 1
    }
    if (out == m) new CSRGraph(numNodes, offsets, neighbors, weights, nodeTypes, numTypes)
    else new CSRGraph(numNodes, offsets, Arrays.copyOf(neighbors, out), Arrays.copyOf(weights, out),
                      nodeTypes, numTypes)
  }
}
