package repro.model

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** Metapath2vec (Eq. 4): metapath-guided first-order walk on heterogeneous
  * networks. The state x = (T, v) where T is the node type the next step
  * must match; candidate edges to a node of type T keep their static
  * weight, every other edge has dynamic weight 0.
  *
  * `aux` stores the walker's position inside the metapath; the target type
  * for the next hop is `metapath((aux + 1) % len)`. A walk whose current
  * node has no neighbor of the target type terminates early (the walker is
  * "stuck", as in the reference implementation).
  */
final class MetaPath2Vec(val metapath: Array[Int]) extends RandomWalkModel {
  require(metapath.nonEmpty, "metapath must be non-empty")
  override val name = s"metapath2vec(${metapath.mkString("-")})"
  override val isSecondOrder = false

  private val len = metapath.length

  /** The node type the walker must hop to from metapath position `aux`. */
  def targetType(aux: Int): Int = metapath((aux + 1) % len)

  override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double =
    if (s.aux >= 0 && g.nodeType(g.dst(e)) == targetType(s.aux)) g.weight(e).toDouble else 0.0

  override def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState =
    WalkState(s.cur, g.dst(e), (s.aux + 1) % len)

  /** Start at the first metapath position whose type matches the start
    * node; aux = -1 (immediately stuck) if the type is not on the path.
    */
  override def initialState(g: CSRGraph, start: Int): WalkState =
    WalkState(-1, start, metapath.indexOf(g.nodeType(start)))

  /** One sampler per (node, metapath position) — |states| = |V| * |Phi|
    * in the paper's Table I accounting.
    */
  override def slotBase(g: CSRGraph, v: Int): Int = v * len
  override def affixture(g: CSRGraph, s: WalkState): Int = math.max(s.aux, 0)
  // Slot 0 of a node off the metapath only ever holds its stuck start state.
  override def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState =
    if (affix == 0 && !metapath.contains(g.nodeType(v))) initialState(g, v)
    else WalkState(-1, v, affix)

  override val maxBias = 1.0
  // Forbidden edges have bias 0, so no uniform pre-acceptance floor exists.
  override val minBias = 0.0
}
