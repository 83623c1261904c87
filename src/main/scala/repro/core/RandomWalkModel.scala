package repro.core

import repro.graph.CSRGraph

/** Walker state x (paper §I, §IV-B): everything a model needs to identify
  * the transition probability distribution at the walker's current step.
  *
  *  - `prev` — the previously visited node s (second-order models), or -1
  *    on the first step / for first-order models;
  *  - `cur`  — the node v the walker currently resides at;
  *  - `aux`  — model-specific extra data: metapath2vec stores the walker's
  *    position within the metapath here, the node2vec family the global
  *    index of the edge (prev -> cur) it arrived on, and deepwalk
  *    ignores it.
  */
final case class WalkState(prev: Int, cur: Int, aux: Int)

/** The unified random walk model abstraction (paper §IV-B, Fig. 3).
  *
  * A model defines the transition distribution of a state *unnormalized*,
  * as a dynamic edge weight w' per candidate edge (`calculateWeight`), and
  * the state-update logic after a step (`updateState`) — exactly the two
  * programming interfaces UniNet exposes. The remaining members support
  * the engine and the comparison samplers:
  *
  *  - `slotBase`/`affixture` realize the paper's 2D data layout (§IV-C):
  *    a state decomposes into *position* (the current node) and
  *    *affixture* (an index within that node's bucket), and `slot` maps it
  *    to one index in [0, `numSlots`) in O(1) — M-H's flat LAST_x array
  *    and the precomputed alias tables are indexed by it;
  *  - `bias`/`maxBias` expose w' = bias * w for the rejection-style
  *    samplers (rejection, KnightKing) that need an envelope over the
  *    static-weight proposal distribution.
  */
trait RandomWalkModel extends Serializable {
  def name: String

  /** True when the state depends on the previous edge (|states| = |E|). */
  def isSecondOrder: Boolean

  /** Dynamic (unnormalized) weight w' of the edge at global index `e`
    * (implicitly (s.cur -> g.dst(e))) under state `s`. Must be >= 0; a
    * zero weight means the edge is forbidden under this state.
    */
  def calculateWeight(g: CSRGraph, s: WalkState, e: Int): Double

  /** The walker's state after traversing edge `e` from state `s`. */
  def updateState(g: CSRGraph, s: WalkState, e: Int): WalkState

  /** The state of a fresh walker starting at `start`. */
  def initialState(g: CSRGraph, start: Int): WalkState

  /** First slot of node v's bucket: 0 at v = 0 and non-decreasing, so
    * node v owns the slots [slotBase(v), slotBase(v + 1)); defined for
    * v in [0, numNodes].
    */
  def slotBase(g: CSRGraph, v: Int): Int

  /** Number of distinct affixtures (= samplers) in node v's bucket. */
  final def bucketSize(g: CSRGraph, v: Int): Int = slotBase(g, v + 1) - slotBase(g, v)

  /** Number of slots over all buckets. */
  final def numSlots(g: CSRGraph): Int = slotBase(g, g.numNodes)

  /** The slot of state `s`, in [0, numSlots): one slot per state, each
    * state of node v's bucket mapped to a distinct slot. First-order
    * models use the position-major order of Fig. 4, `slotBase(v)` plus
    * the affixture; second-order models key a state by the edge it
    * arrived on (see [[repro.model.SecondOrderModel]]), so the states of a
    * bucket need not lie in [slotBase(v), slotBase(v + 1)).
    */
  def slot(g: CSRGraph, s: WalkState): Int = slotBase(g, s.cur) + affixture(g, s)

  /** Index of state `s` within the bucket of node `s.cur`, in
    * [0, bucketSize). For second-order models this is the index of the
    * previous node among N(cur) (O(log deg) binary search), which no
    * sampler's draw needs.
    */
  def affixture(g: CSRGraph, s: WalkState): Int

  /** Reconstruct the walker state of bucket slot (v, affix) — the inverse
    * of `affixture`, used by samplers that eagerly materialize one
    * structure per state (precompute-all alias tables, which store it at
    * `slot(stateFor(v, affix))`).
    */
  def stateFor(g: CSRGraph, v: Int, affix: Int): WalkState

  /** w'(e) / w(e) — the factor a rejection sampler accepts with. */
  def bias(g: CSRGraph, s: WalkState, e: Int): Double = {
    val w = g.weight(e)
    if (w <= 0f) 0.0 else calculateWeight(g, s, e) / w
  }

  /** Upper bound of `bias` over all states/edges (rejection envelope). */
  def maxBias: Double

  /** Lower bound of `bias` over *permitted* edges; enables KnightKing's
    * pre-acceptance shortcut (accept without computing the weight when a
    * uniform draw falls below minBias/envelope).
    */
  def minBias: Double

  /** KnightKing outlier folding (§V-D): the single deterministic outlier
    * edge of state `s`, if this model has one — node2vec's "return to s"
    * edge whose bias 1/p can exceed the folded envelope. None for models
    * whose outliers are non-deterministic (edge2vec, fairwalk) — exactly
    * why the paper finds folding ineffective there.
    */
  def outlierEdge(g: CSRGraph, s: WalkState): Int = -1

  /** Envelope over `bias` once the outlier edge is excluded. */
  def foldedMaxBias: Double = maxBias

  /** Total number of states over the network (paper Table I) — one per
    * slot for first-order models (|V|, or |V| * |Phi| for metapath2vec),
    * |E| (directed) for second-order ones, whose prev-less first-step
    * slots are not counted. M-H's LAST_x array has `numSlots` entries, so
    * for second-order models it holds |V| slots more than this. Its
    * 2-byte entries keep it within the paper's 4 bytes per state whenever
    * |V| <= |E|dir; a graph with a node of degree above 65,534 takes 4
    * bytes per slot (see [[repro.sampler.MHSamplerFactory]]). The walk
    * job's `localBytes` measures the array.
    */
  def numStates(g: CSRGraph): Long =
    if (isSecondOrder) g.numDirectedEdges.toLong else numSlots(g).toLong
}
