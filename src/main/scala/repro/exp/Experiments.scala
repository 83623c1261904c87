package repro.exp

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession

import repro.core.{Pipeline, RandomWalkModel, RunConfig, RunResult}
import repro.graph.{CSRGraph, DatasetConfig}
import repro.model._
import repro.sampler._

/** Shared plumbing for the table harnesses: implementation variants,
  * per-model "original" samplers, paper-scale projections, and plain-text
  * table rendering.
  */
object Experiments {

  /** Bench walk workload: the paper generates 10 walks of length 80 per
    * node; we scale to 2 x 20 (documented in DESIGN.md §3) and fold the
    * 20x factor back into the paper-scale projections.
    */
  val PaperWalks = 10
  val PaperWalkLen = 80

  /** The paper's default parallelism: its 16 walker threads, kept as the
    * walk job's partition count on any host. A host with fewer cores runs
    * the partitions as successive tasks, and since every M-H task shares
    * its executor's chains, the number of chains, their inits and their
    * LAST_x bytes do not depend on the partition count.
    */
  val Parallelism = 16

  /** Timed runs per cell of Tables II and VII after a warm-up; cells keep the minimum. */
  val Repeats = 2

  /** The sampling method each model's reference implementation uses
    * (paper §V-C): alias with full per-state precomputation for node2vec,
    * the direct sampler for the other four.
    */
  def origFactory(model: RandomWalkModel): SamplerFactory = model match {
    case _: Node2Vec => new AliasSamplerFactory
    case _           => DirectSamplerFactory
  }

  /** Default M-H factory: high-weight initialization (paper §V-C). */
  def mhFactory: SamplerFactory = new MHSamplerFactory(HighWeightInit())

  /** Project a -lite measurement to paper scale: scale walkers (|V|),
    * per-step cost (mean degree, if O(d)), and the walk workload back up
    * to the paper's 10 x 80. Constant Python-vs-C++ factors are NOT
    * modeled, so this is a lower bound for the open-sourced baselines.
    */
  def projectPaperSeconds(measured: Double, cfg: DatasetConfig, lite: CSRGraph,
                          linearInDegree: Boolean, numWalks: Int, walkLen: Int): Double = {
    val nodeScale = cfg.paperNodes.toDouble / lite.numNodes
    val degScale = if (linearInDegree) cfg.paperMeanDegree / lite.meanDegree else 1.0
    val walkScale = (PaperWalks.toDouble * PaperWalkLen) / (numWalks.toDouble * walkLen)
    measured * nodeScale * degScale * walkScale
  }

  /** ">4h" when a projection crosses the paper's 4-hour cutoff. */
  def fmtProjected(seconds: Double): String =
    if (seconds > 4 * 3600.0) ">4h" else f"$seconds%.0fs"

  /** Run one pipeline config, or None when the paper-scale memory model
    * says this (sampler, dataset) pair OOMs on the 96 GB server — those
    * cells print `*` exactly as in the paper.
    */
  def runUnlessOOM(
      spark: SparkSession,
      bcGraph: Broadcast[CSRGraph],
      cfg: DatasetConfig,
      model: RandomWalkModel,
      factory: SamplerFactory,
      run: RunConfig,
      openSourceImpl: Boolean = false,
  ): Option[RunResult] = {
    if (MemoryModel.ooms(cfg, factory, model.isSecondOrder, openSourceImpl)) None
    else {
      // Settle the heap so the previous run's dropped tables/caches are
      // not collected in the middle of this run's timed phases.
      System.gc()
      Some(Pipeline.run(spark, bcGraph, model, factory, run))
    }
  }

  /** Memory-aware budget: "the same size as the memory consumption of
    * UniNet" (paper §V-D) = graph storage + one LAST_x int per state.
    */
  def memoryAwareBudget(g: CSRGraph, model: RandomWalkModel): Long =
    g.storageBytes + 4L * model.numStates(g)

  /** Render rows as an aligned plain-text table. */
  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def fmtSec(s: Double): String = f"$s%.2f"
}
