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
  require(nodeTypes == null || nodeTypes.length == numNodes, "nodeTypes must have numNodes entries")

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

  /** Symmetrize an undirected edge list into directed adjacency and build
    * the CSR: each pair contributes both directions with the same weight.
    * This is where graph input is deduplicated: a pair listed more than
    * once, in either orientation, becomes one edge in each of its two
    * slices, and both keep the first weight of the sorted copies, which for
    * non-negative weights is the lowest. A self-loop (u, u) keeps one entry.
    * No slice therefore holds a neighbor twice.
    *
    * Both directions of each pair go straight into a counting-sorted array
    * of (dst, weight bits) longs; each slice is then sorted and unpacked in
    * one pass that drops an entry repeating the one before it, closing the
    * offsets up behind it.
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
    require(vs.length == m && ws.length == m, "edge arrays misaligned")
    val offsets = new Array[Int](numNodes + 1)
    var i = 0
    while (i < m) {
      val u = us(i); val v = vs(i)
      require(u >= 0 && u < numNodes && v >= 0 && v < numNodes,
              s"edge $i = ($u, $v) has a node id outside [0, $numNodes)")
      offsets(u + 1) += 1; offsets(v + 1) += 1
      i += 1
    }
    i = 0
    while (i < numNodes) { offsets(i + 1) += offsets(i); i += 1 }
    val cursor = Arrays.copyOf(offsets, numNodes)
    val packed = new Array[Long](2 * m)
    i = 0
    while (i < m) {
      val u = us(i); val v = vs(i)
      val bits = java.lang.Float.floatToRawIntBits(ws(i)).toLong & 0xffffffffL
      packed(cursor(u)) = (v.toLong << 32) | bits; cursor(u) += 1
      packed(cursor(v)) = (u.toLong << 32) | bits; cursor(v) += 1
      i += 1
    }
    val neighbors = new Array[Int](2 * m)
    val weights = new Array[Float](2 * m)
    var out = 0
    i = 0
    var v = 0
    while (v < numNodes) {
      val end = offsets(v + 1)
      Arrays.sort(packed, i, end)
      val first = out
      while (i < end) {
        val u = (packed(i) >>> 32).toInt
        if (out == first || neighbors(out - 1) != u) {
          neighbors(out) = u
          weights(out) = java.lang.Float.intBitsToFloat(packed(i).toInt)
          out += 1
        }
        i += 1
      }
      offsets(v + 1) = out
      v += 1
    }
    if (out == 2 * m) new CSRGraph(numNodes, offsets, neighbors, weights, nodeTypes, numTypes)
    else new CSRGraph(numNodes, offsets, Arrays.copyOf(neighbors, out), Arrays.copyOf(weights, out),
                      nodeTypes, numTypes)
  }
}
