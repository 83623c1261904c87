package repro.model

import repro.core.WalkState
import repro.graph.CSRGraph

/** Edge2vec (Eq. 3): node2vec extended with an edge-type transition matrix
  * M on heterogeneous networks. The dynamic weight of a candidate edge
  * (v, u) under state (s, v) is
  *     alpha_u * M(Phi(s,v), Phi(v,u)) * w_vu,
  * with alpha as in node2vec. Edge types are ordered node-type pairs
  * (CSRGraph.edgeType), so M is (T^2 x T^2). The first step has no
  * previous edge; the M factor and alpha are then 1.
  *
  * The paper learns M by EM in the original edge2vec; here M is a fixed
  * deterministic stochastic-ish matrix ([[Edge2Vec.Matrix]]) — the
  * sampling cost and distribution shape only depend on M's value range,
  * not on how it was fit (DESIGN.md §3).
  */
final class Edge2Vec(p: Double, q: Double) extends SecondOrderModel(p, q) {
  import Edge2Vec.Matrix

  override val name = s"edge2vec(p=$p,q=$q)"

  /** M factor for traversing edge `e` after having arrived via (s.prev, s.cur). */
  def mFactor(g: CSRGraph, s: WalkState, e: Int): Double =
    if (s.prev < 0) 1.0
    else {
      val prevType = g.nodeType(s.prev) * g.numTypes + g.nodeType(s.cur)
      Matrix(prevType)(g.edgeType(s.cur, e))
    }

  override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double =
    alpha(g, s, e) * mFactor(g, s, e) * g.weight(e)

  override val maxBias: Double = maxAlpha * Matrix.map(_.max).max
  override val minBias: Double = minAlpha * Matrix.map(_.min).min
  // No deterministic outlier: the M factor depends on the heterogeneous
  // type layout, so outlier folding cannot be predefined (paper §V-E).
}

object Edge2Vec {
  /** Deterministic dense transition matrix over the 3^2 edge types of
    * `GraphGen.typeOf`'s three node types, with entries in [0.2, 1.0] —
    * positive everywhere so every edge stays reachable, skewed enough to
    * exercise the samplers.
    */
  val Matrix: Array[Array[Double]] =
    Array.tabulate(9, 9)((i, j) => 0.2 + 0.8 * (((i * 7 + j * 13) % 10) / 10.0))

  def apply(p: Double, q: Double): Edge2Vec = new Edge2Vec(p, q)
}
