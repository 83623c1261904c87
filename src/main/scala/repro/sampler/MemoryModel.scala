package repro.sampler

import repro.graph.DatasetConfig

/** Analytic memory accounting at *paper scale* (DESIGN.md §3).
  *
  * We cannot materialize 2.9B/6.6B-edge graphs, so the out-of-memory `*`
  * cells of Tables VI/VII are decided from each sampler's memory-complexity
  * formula (its factory's `paperBytes`) evaluated on the real dataset sizes
  * against the paper's server (96 GB) — the paper's OOM pattern is itself
  * a memory-complexity statement, which these formulas reproduce:
  *
  *   graph (CSR, weighted)        : 8 |E|dir + 4 |V| bytes
  *   graph (open-sourced impl)    : 20 |E|dir + 8 |V|
  *   alias, first-order           : 8 |E|dir + 4 |V|          (one table/node)
  *   alias, second-order          : 8 |E|dir * dbar + 4 |E|dir (one table/edge)
  *   rejection / KnightKing       : 8 |E|dir + 12 |V|         (static proposal)
  *   M-H (LAST_x)                 : 4 * #state
  *   memory-aware (budgeted alias): min(free, alias need)     (by construction)
  *   direct                       : 0
  *
  * |E|dir is `DatasetConfig.paperEdges`, the directed adjacency count
  * = |V| * mean-degree, matching the paper's Table V convention. Alias
  * tables cost what [[AliasStore]] stores: 8 bytes per entry (an `Int`
  * alias, since paper-scale hubs exceed 16 bits) and 4 per table.
  *
  * M-H's #state is Table I's, charged 4 bytes each: the program stores a
  * LAST_x entry in 2 bytes only while every degree fits 16 bits (at most
  * 65,534), and the paper-scale graphs' hubs can exceed that. A
  * second-order model's LAST_x array also holds one prev-less first-step
  * slot per node, |V| more than #state; at 2 bytes per entry the measured
  * array (the walk job's `localBytes`) stays within the formula whenever
  * |V| <= |E|dir, which `MHSamplerSpec` checks for all five models.
  */
object MemoryModel {
  val PaperServerBytes: Long = 96L * (1L << 30)

  def graphBytes(nodes: Long, directedEdges: Long): Long = 8L * directedEdges + 4L * nodes

  /** The open-sourced reference implementations hold the network in much
    * fatter structures than a CSR (python dict-of-lists / networkx-style
    * objects). 20 bytes per adjacency entry is the calibration that
    * separates the paper's observed behavior: open-sourced deepwalk *runs*
    * on Twitter (2.9B entries -> 58 GB < 96 GB) but OOMs on Web-UK
    * (6.6B -> 132 GB > 96 GB), exactly Table VI's '*' pattern.
    */
  val OpenSourceBytesPerEdge: Long = 20L

  def paperStates(cfg: DatasetConfig, secondOrder: Boolean): Long =
    if (secondOrder) cfg.paperEdges else cfg.paperNodes

  /** Alias tables at paper scale: one per node over its edges for
    * first-order models, one per directed edge over its destination's
    * edges for second-order ones.
    */
  def paperAliasBytes(cfg: DatasetConfig, secondOrder: Boolean): Long = {
    val e = cfg.paperEdges
    val entries = if (secondOrder) (e * cfg.paperMeanDegree).toLong else e
    AliasStore.bytes(paperStates(cfg, secondOrder), entries, wide = true)
  }

  /** True when the graph plus `factory`'s sampler on the paper-scale
    * dataset `cfg` exceed the paper's 96 GB server: a table's `*` cell.
    * The sampler may use what the graph leaves free.
    */
  def ooms(cfg: DatasetConfig, factory: SamplerFactory, secondOrder: Boolean,
           openSourceImpl: Boolean = false): Boolean = {
    val e = cfg.paperEdges
    val v = cfg.paperNodes
    val graph = if (openSourceImpl) OpenSourceBytesPerEdge * e + 8L * v else graphBytes(v, e)
    graph + factory.paperBytes(cfg, secondOrder, PaperServerBytes - graph) > PaperServerBytes
  }
}
