package repro.model

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.CSRGraph

/** Deepwalk (Eq. 1): first-order random walk; the dynamic edge weight is
  * just the static weight w, and the state is the current node (Table IV).
  */
final class DeepWalk extends RandomWalkModel {
  override val name = "deepwalk"
  override val isSecondOrder = false

  override def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double = g.weight(e).toDouble

  override def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState =
    WalkState(s.cur, g.dst(e), 0)

  override def initialState(g: CSRGraph, start: Int): WalkState = WalkState(-1, start, 0)

  override def slotBase(g: CSRGraph, v: Int): Int = v
  override def affixture(g: CSRGraph, s: WalkState): Int = 0
  override def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState = WalkState(-1, v, 0)

  override val maxBias = 1.0
  override val minBias = 1.0
}
