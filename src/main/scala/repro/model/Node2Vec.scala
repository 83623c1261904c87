package repro.model

import repro.core.WalkState
import repro.graph.CSRGraph

/** Node2vec (Eq. 2): the dynamic weight of a candidate edge (v, u) is
  * alpha_u * w_vu, with alpha as in [[SecondOrderModel]].
  */
final class Node2Vec(p: Double, q: Double) extends SecondOrderModel(p, q) {
  override val name = s"node2vec(p=$p,q=$q)"

  override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double =
    alpha(g, s, e) * g.weight(e)

  override val maxBias: Double = maxAlpha
  override val minBias: Double = minAlpha

  /** Outlier folding: when 1/p alone exceeds the rest of the bias range,
    * the single return edge (v, s) is the deterministic outlier KnightKing
    * folds out of the envelope. A graph from the CSRGraph constructor
    * need not hold the reverse edge (cur, prev); there is then no outlier.
    */
  override def outlierEdge(g: CSRGraph, s: WalkState): Int = {
    if (s.prev < 0 || invP <= math.max(1.0, invQ)) -1
    else {
      val i = g.neighborIndexOf(s.cur, s.prev)
      if (i < 0) -1 else g.offset(s.cur) + i
    }
  }

  override val foldedMaxBias: Double = math.max(1.0, invQ)
}
