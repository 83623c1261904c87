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

  /** The next state keeps the traversed edge in `aux`: it is the state's
    * slot.
    */
  override final def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState =
    WalkState(s.cur, g.dst(e), e)

  override final def initialState(g: CSRGraph, start: Int): WalkState = WalkState(-1, start, 0)

  /** Node v's bucket: one state per (v, index-of-s-in-N(v)) plus the first
    * step's prev-less state, deg(v) + 1 slots; `slotBase` counts them.
    */
  override final def slotBase(g: CSRGraph, v: Int): Int = g.offset(v) + v

  /** Edge-keyed slots: a state (s, v) is the directed edge (s -> v) it
    * arrived on, which `updateState` carries in `aux`, and the prev-less
    * first step of node v is |E|dir + v. States and edges correspond one
    * to one, since the CSR holds no parallel edge, so the slots fill
    * [0, numSlots) with no search; this departs from Fig. 4's
    * position-major order, where a state's slot is `slotBase(v)` plus
    * its affixture. A second-order state must therefore come from
    * `initialState`/`updateState` (or `stateFor`), not be built by hand.
    */
  override final def slot(g: CSRGraph, s: WalkState): Int =
    if (s.prev < 0) g.numDirectedEdges + s.cur else s.aux

  override final def affixture(g: CSRGraph, s: WalkState): Int =
    if (s.prev < 0) g.degree(s.cur)
    else {
      val i = g.neighborIndexOf(s.cur, s.prev)
      // prev reached cur via an edge, and fromUndirectedEdges builds every
      // edge in both directions, so the reverse edge exists; guard anyway,
      // since the CSRGraph constructor accepts any arrays.
      if (i >= 0) i else g.degree(s.cur)
    }

  /** The state at affixture `affix` of node v, with the edge (s -> v) it
    * arrives on; it needs the reverse of N(v)'s edge (v -> s), which a
    * symmetric adjacency such as `fromUndirectedEdges`' always holds.
    */
  override final def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState =
    if (affix >= g.degree(v)) WalkState(-1, v, 0)
    else {
      val prev = g.dst(g.offset(v) + affix)
      val i = g.neighborIndexOf(prev, v)
      require(i >= 0, s"no edge $prev -> $v: second-order states need a symmetric adjacency")
      WalkState(prev, v, g.offset(prev) + i)
    }
}
