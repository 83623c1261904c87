package repro.sampler

import java.lang.invoke.MethodHandles
import java.util.SplittableRandom

import repro.core.{RandomWalkModel, WalkState}
import repro.graph.{CSRGraph, DatasetConfig}

/** Initialization strategy for an M-H edge sampler's Markov chain
  * (paper §III-C): how to pick LAST_x the first time a state is touched.
  */
sealed trait InitStrategy extends Serializable { def name: String }

/** Draw the initial edge uniformly from the permitted neighbors — O(1),
  * but the chain may start in a low-probability region.
  */
case object RandomInit extends InitStrategy { val name = "Rand" }

/** Seed the chain at the (approximately) maximum-dynamic-weight edge: an
  * exact O(deg) scan for small degrees, otherwise the max over
  * `sampleSize` uniform probes (the paper's law-of-large-numbers
  * approximation). Better than random exactly when Thm. 3's condition
  * holds — true for skewed real-network distributions.
  */
final case class HighWeightInit(sampleSize: Int = 16) extends InitStrategy { val name = "Weight" }

/** Classic burn-in: random init followed by `iterations` discarded M-H
  * steps (the paper tunes 100). Accurate but expensive over #state chains.
  */
final case class BurnInInit(iterations: Int = 100) extends InitStrategy { val name = "Burn" }

/** The M-H based edge sampler (paper Alg. 1) — the core contribution.
  *
  * The conditional probability mass function is the uniform distribution
  * over N(v), so a step is: draw a uniform candidate edge, accept with
  * θ = min{1, w'(cand) / w'(LAST_x)}, emit LAST_x. O(1) time and one
  * small integer of memory per state, and the target distribution never
  * needs normalizing — which is what lets UniNet support arbitrary user
  * models (Challenge 2) at billion-edge scale (Challenge 1).
  *
  * The factory is the paper's sampler manager (§IV-C): it holds one
  * LAST_x [[ChainStore]], 2 bytes per slot (4 when some node's degree
  * exceeds [[ChainStore.MaxCharDegree]]), and every sampler it creates
  * for the same (graph, model) walks the same chains, one per state,
  * Hogwild-style. The paper-scale formula (`paperBytes`) still charges 4
  * bytes per state: the paper's hubs can exceed 16 bits.
  */
final class MHSamplerFactory(val init: InitStrategy) extends SamplerFactory {
  override def name = s"mh(${init.name})"

  /** The shared LAST_x store and the (graph, model name) it indexes. The
    * field is not serialized, so each executor's copy of the broadcast
    * factory allocates its own store on first use (in local mode every
    * task sees the broadcast instance itself) and keeps it for every
    * later task and job on the same graph and model.
    */
  @transient private var manager: (CSRGraph, String, ChainStore) = _

  /** A sampler on the shared LAST_x store of (`g`, `model`). The first
    * call for a pair allocates the store, every slot uninitialized, and
    * charges its bytes to that sampler's `localBytes`; later calls share
    * it and charge nothing. Another graph or model replaces the store
    * with a fresh one.
    */
  override def create(g: CSRGraph, model: RandomWalkModel): EdgeSampler = {
    val (slots, fresh) = synchronized {
      manager match {
        case (mg, mName, a) if (mg eq g) && mName == model.name => (a, false)
        case _ =>
          val a = ChainStore(g, model.numSlots(g))
          manager = (g, model.name, a)
          (a, true)
      }
    }
    val sampler = new MHSampler(g, model, init, slots)
    if (fresh) sampler.stats.localBytes = slots.bytes
    sampler
  }

  /** Zero: `prepare` builds nothing, and the one LAST_x store per executor
    * is charged to the walk job's `localBytes`, which measures it.
    */
  override def memoryBytes(g: CSRGraph, model: RandomWalkModel): Long = 0L

  override def paperBytes(cfg: DatasetConfig, secondOrder: Boolean, freeBytes: Long): Long =
    4L * MemoryModel.paperStates(cfg, secondOrder)
}

/** LAST_x of every state, indexed by `model.slot` and stored relative to
  * N(cur): an entry is LAST_x's offset in cur's adjacency slice plus
  * [[ChainStore.First]]. [[ChainStore.Uninit]] (0) marks a state no walker
  * has touched, so a fresh store needs no fill, and [[ChainStore.NoEdge]]
  * (1) a state that permits no edge. Entries are 2-byte chars, which hold
  * every offset of a node of degree up to [[ChainStore.MaxCharDegree]];
  * a graph with a larger degree gets 4-byte ints with the same encoding.
  *
  * Reads and writes are plain element accesses; a state's first touch is
  * a compare-and-exchange through a `VarHandle`, so exactly one thread
  * initializes it.
  */
final class ChainStore private (val length: Int, wide: Boolean) {
  import ChainStore._

  private val chars: Array[Char] = if (wide) null else new Array[Char](length)
  private val ints: Array[Int] = if (wide) new Array[Int](length) else null

  /** The backing array: an `Array[Char]`, or an `Array[Int]` on a graph
    * with a node of degree above [[ChainStore.MaxCharDegree]].
    */
  def array: AnyRef = if (chars != null) chars else ints

  /** Bytes of the backing array's entries. */
  def bytes: Long = (if (chars != null) 2L else 4L) * length

  def apply(x: Int): Int = if (chars != null) chars(x) else ints(x)

  def update(x: Int, code: Int): Unit = if (chars != null) chars(x) = code.toChar else ints(x) = code

  /** Stores `code` at `x` if `x` is uninitialized. Returns the entry `x`
    * held before: [[ChainStore.Uninit]] when this call initialized it,
    * else the code of the walker that did.
    */
  def initialize(x: Int, code: Int): Int =
    if (chars != null) (CharEntry.compareAndExchange(chars, x, Uninit.toChar, code.toChar): Char)
    else (IntEntry.compareAndExchange(ints, x, Uninit, code): Int)
}

object ChainStore {
  final val Uninit = 0
  final val NoEdge = 1
  /** The entry of LAST_x = offset 0 of N(cur). */
  final val First = 2
  /** The largest degree whose every offset fits a 2-byte entry. */
  final val MaxCharDegree: Int = Char.MaxValue + 1 - First

  private val CharEntry = MethodHandles.arrayElementVarHandle(classOf[Array[Char]])
  private val IntEntry = MethodHandles.arrayElementVarHandle(classOf[Array[Int]])

  /** A store of `numSlots` uninitialized entries, as wide as `g` needs. */
  def apply(g: CSRGraph, numSlots: Int): ChainStore = {
    var v = 0
    while (v < g.numNodes && g.degree(v) <= MaxCharDegree) v += 1
    new ChainStore(numSlots, wide = v < g.numNodes)
  }
}

/** One walker's view of the sampler manager. `slots` may be shared with
  * samplers on other threads: a state's first touch is a
  * compare-and-exchange from [[ChainStore.Uninit]], so exactly one thread
  * counts its init, and an accepted step is a plain store, so a
  * concurrent step can at worst overwrite one transition of the chain
  * (Hogwild!, Recht et al. 2011). Every entry is an offset in the same
  * N(cur), so whatever a walker reads is a valid edge of its state.
  */
final class MHSampler(
    g: CSRGraph,
    model: RandomWalkModel,
    init: InitStrategy,
    val slots: ChainStore,
) extends EdgeSampler(g) {
  import ChainStore.{First, NoEdge, Uninit}

  // The probe edges of one high-weight init, drawn before any is weighed.
  private val probes: Array[Int] = init match {
    case HighWeightInit(k) => new Array[Int](k)
    case _                 => null
  }
  /** Uniform draw of a permitted (w' > 0) edge of N(v): up to 32 random
    * probes, then one reservoir-sampling pass over N(v), which keeps the
    * draw uniform however the permitted edges are placed; -1 when no edge
    * is permitted.
    */
  private def randomPermitted(s: WalkState, rng: SplittableRandom): Int = {
    val lo = g.offset(s.cur); val d = g.degree(s.cur)
    var probe = 0
    while (probe < 32) {
      val e = lo + rng.nextInt(d)
      if (model.calculateWeight(g, s, e) > 0) return e
      probe += 1
    }
    var chosen = -1
    var seen = 0
    var e = lo
    while (e < lo + d) {
      if (model.calculateWeight(g, s, e) > 0) {
        seen += 1
        if (rng.nextInt(seen) == 0) chosen = e
      }
      e += 1
    }
    chosen
  }

  /** LAST_x for the first touch of state `s` under `init`; -1 when `s`
    * permits no edge.
    */
  private[sampler] def initialEdge(s: WalkState, rng: SplittableRandom): Int = init match {
    case RandomInit => randomPermitted(s, rng)
    case HighWeightInit(k) =>
      // The exact max over N(v) when d <= k, else the first max over k
      // uniform probes. All probes are drawn before any is weighed: weights
      // draw no random numbers, so the RNG sequence and the chosen edge are
      // those of weighing each probe as it is drawn, but the k independent
      // weight evaluations (node2vec's neighbour searches) no longer wait
      // behind the RNG, and the CPU overlaps their cache misses.
      val lo = g.offset(s.cur); val d = g.degree(s.cur)
      val exact = d <= k
      val n = if (exact) d else k
      var j = 0
      if (!exact) while (j < k) { probes(j) = lo + rng.nextInt(d); j += 1 }
      var best = -1; var bestW = 0.0
      j = 0
      while (j < n) {
        val e = if (exact) lo + j else probes(j)
        val w = model.calculateWeight(g, s, e)
        if (w > bestW) { bestW = w; best = e }
        j += 1
      }
      if (best < 0 && !exact) randomPermitted(s, rng) else best
    case BurnInInit(iters) =>
      var last = randomPermitted(s, rng)
      var i = 0
      while (last >= 0 && i < iters) {
        val cand = propose(s, last, g.degree(s.cur), rng)
        if (cand >= 0) last = cand
        i += 1
      }
      last
  }

  /** One M-H proposal from LAST_x = `last`: a uniform candidate edge of
    * N(v), accepted with min{1, w'(cand)/w'(last)}; -1 when rejected.
    */
  private def propose(s: WalkState, last: Int, d: Int, rng: SplittableRandom): Int = {
    val cand = g.offset(s.cur) + rng.nextInt(d)
    val wc = model.calculateWeight(g, s, cand)
    if (wc > 0) {
      val wl = model.calculateWeight(g, s, last)
      if (wl <= 0 || rng.nextDouble() * wl < wc) return cand
    }
    -1
  }

  /** Alg. 1: one M-H transition of state x's chain, returning LAST_x. A
    * rejected candidate leaves the entry as it is, so only an accepted
    * one is stored.
    */
  override protected def draw(s: WalkState, d: Int, rng: SplittableRandom): Int = {
    val x = model.slot(g, s)
    val lo = g.offset(s.cur)
    var code = slots(x)
    if (code < First) {
      if (code == NoEdge) return -1
      val t0 = System.nanoTime()
      val e = initialEdge(s, rng)
      val mine = if (e < 0) NoEdge else e - lo + First
      stats.initNanos += System.nanoTime() - t0
      val prior = slots.initialize(x, mine)
      if (prior == Uninit) { stats.initCount += 1; code = mine }
      else code = prior // another walker initialized x first: adopt its chain
      if (code == NoEdge) return -1 // the walk is stuck
    }
    stats.trials += 1
    val last = lo + code - First
    val cand = propose(s, last, d, rng)
    if (cand < 0) last
    else {
      slots(x) = cand - lo + First
      stats.accepts += 1
      cand
    }
  }
}
