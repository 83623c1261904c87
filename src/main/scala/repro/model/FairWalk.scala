package repro.model

import repro.core.WalkState
import repro.graph.CSRGraph

/** Fairwalk (Eq. 5 / Table IV): node2vec where each node-type group of
  * neighbors first gets equal probability mass, removing the bias of
  * over-represented attributes. Following the paper's Table IV, the
  * dynamic weight of a candidate (v, u) is
  *     alpha_u * w_vu / |K_u|,   K_u = { k in N(v) : Phi(k) = Phi(u) },
  * with alpha as in node2vec. |K_u| is read in O(1) from the CSR's
  * per-node type counters. On a homogeneous network |K| = deg(v) and the
  * model degenerates to a rescaled node2vec — benchmarks therefore run it
  * on graphs with generated type info (GraphGen.withGeneratedTypes), as
  * the paper does.
  */
final class FairWalk(p: Double, q: Double) extends SecondOrderModel(p, q) {
  override val name = s"fairwalk(p=$p,q=$q)"

  /** Same-type neighbor group size |K_u| for candidate edge `e`. */
  def groupSize(g: CSRGraph, v: Int, e: Int): Int =
    g.neighborTypeCount(v, g.nodeType(g.dst(e)))

  override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double = {
    val k = groupSize(g, s.cur, e)
    if (k == 0) 0.0 else alpha(g, s, e) * g.weight(e) / k
  }

  override val maxBias: Double = maxAlpha // |K| >= 1
  // bias = alpha / |K| has no useful uniform floor (|K| varies per edge);
  // pre-acceptance is disabled, matching the paper's "non-deterministic
  // outliers" observation for fairwalk.
  override val minBias: Double = 0.0
}
