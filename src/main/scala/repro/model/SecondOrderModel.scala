package repro.model

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** The node2vec family (node2vec, edge2vec, fairwalk): second-order walks
  * biased by hyper-parameters (p, q). State x = the previous edge (s, v);
  * a candidate edge (v, u) gets the factor
  *   alpha = 1/p  if u == s           (d(u,s) = 0, return),
  *   alpha = 1    if (s, u) is an edge (d(u,s) = 1, triangle),
  *   alpha = 1/q  otherwise            (d(u,s) = 2, explore),
  * times the subclass's own weight factor. The triangle test is the
  * O(log deg) binary search the paper's complexity analysis refers to
  * (§III-A). The first step of a walk has no previous edge; alpha is then
  * 1 for every candidate (plain deepwalk step), matching the reference
  * implementation.
  */
abstract class SecondOrderModel(val p: Double, val q: Double) extends RandomWalkModel {
  require(p > 0 && q > 0, s"${getClass.getSimpleName} requires p > 0 and q > 0")
  override final val isSecondOrder = true

  protected final val invP = 1.0 / p
  protected final val invQ = 1.0 / q
  /** Range of alpha over all states and edges. */
  protected final val maxAlpha = math.max(1.0, math.max(invP, invQ))
  protected final val minAlpha = math.min(1.0, math.min(invP, invQ))

  /** alpha_u for state `s` and candidate edge `e`. */
  final def alpha(g: CSRGraph, s: WalkState, e: Int): Double = {
    if (s.prev < 0) 1.0
    else {
      val u = g.dst(e)
      if (u == s.prev) invP
      else if (g.hasEdge(s.prev, u)) 1.0
      else invQ
    }
  }

  override final def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState =
    WalkState(s.cur, g.dst(e), 0)

  override final def initialState(g: CSRGraph, start: Int): WalkState = WalkState(-1, start, 0)

  /** 2D layout (Fig. 4): one sampler per (v, index-of-s-in-N(v)) plus one
    * extra slot for the first step's prev-less state, so node v's bucket
    * starts at its CSR offset plus one prev-less slot per earlier node.
    */
  override final def slotBase(g: CSRGraph, v: Int): Int = g.offset(v) + v

  override final def affixture(g: CSRGraph, s: WalkState): Int =
    if (s.prev < 0) g.degree(s.cur)
    else {
      val i = g.neighborIndexOf(s.cur, s.prev)
      // prev reached cur via an edge, and fromUndirectedEdges builds every
      // edge in both directions, so the reverse edge exists; guard anyway,
      // since the CSRGraph constructor accepts any arrays.
      if (i >= 0) i else g.degree(s.cur)
    }

  override final def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState =
    if (affix >= g.degree(v)) WalkState(-1, v, 0)
    else WalkState(g.dst(g.offset(v) + affix), v, 0)
}
