package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{RandomWalkModel, RunConfig, RunResult}
import repro.graph.GraphGen
import repro.model._
import repro.sampler.DirectSamplerFactory

/** Table VI: end-to-end training cost (Ti, Tw, Tl, Tt) of the five NRL
  * models under three implementations —
  *
  *  - "Open-sourced": the reference implementation's sampling method
  *    (alias-precompute-all for node2vec, direct for the rest), run
  *    single-threaded with a single-threaded word2vec;
  *  - "UniNet (Orig)": the same sampling method inside the parallel
  *    UniNet engine;
  *  - "UniNet (M-H)": the M-H edge sampler with high-weight init.
  *
  * Cells whose sampler + graph cannot fit the paper's 96 GB server at
  * paper scale print `*` and are not run (DESIGN.md §3); for cells the
  * paper reports as ">4h" we additionally report a paper-scale projection
  * of our measurement.
  */
object TableVI {

  final case class ModelBench(
      modelName: String,
      datasets: Seq[String],
      model: RandomWalkModel,
      needsGeneratedTypes: Boolean,
  )

  /** Benchmarked (model, dataset) combinations, as in the paper. */
  val Benchmarks: Seq[ModelBench] = Seq(
    ModelBench("Deepwalk",
      Seq("BlogCatalog", "Amazon", "Reddit", "Flickr", "YouTube", "Twitter", "Web-UK"),
      new DeepWalk, needsGeneratedTypes = false),
    ModelBench("Node2vec",
      Seq("BlogCatalog", "Amazon", "Reddit", "Flickr", "YouTube", "Twitter", "Web-UK"),
      new Node2Vec(0.25, 4.0), needsGeneratedTypes = false),
    ModelBench("Metapath2vec",
      Seq("ACM", "DBLP", "DBIS", "AMiner"),
      new MetaPath2Vec(Array(0, 1, 0)), needsGeneratedTypes = false),
    ModelBench("Edge2vec",
      Seq("ACM", "DBLP", "DBIS", "AMiner"),
      Edge2Vec(0.25, 0.25), needsGeneratedTypes = false),
    ModelBench("Fairwalk",
      Seq("BlogCatalog", "Amazon", "Reddit"),
      new FairWalk(1.0, 1.0), needsGeneratedTypes = true),
  )

  /** Paper total cost Tt per (model, dataset) for the three
    * implementations (strings keep the paper's ">4h" / "*" cells).
    */
  val PaperTt: Map[(String, String), (String, String, String)] = Map(
    ("Deepwalk", "BlogCatalog") -> ("25.14", "6.44", "1.51"),
    ("Deepwalk", "Amazon")      -> ("945.02", "124.77", "36.59"),
    ("Deepwalk", "Reddit")      -> ("649.79", "381.49", "26.46"),
    ("Deepwalk", "Flickr")      -> ("244.26", "200.07", "12.9"),
    ("Deepwalk", "YouTube")     -> ("3267.6", "1025.95", "178.73"),
    ("Deepwalk", "Twitter")     -> (">4h", ">4h", "6046.63"),
    ("Deepwalk", "Web-UK")      -> ("*", ">4h", "10008.59"),
    ("Node2vec", "BlogCatalog") -> ("1795.0", "11.57", "1.80"),
    ("Node2vec", "Amazon")      -> ("2109.1", "45.33", "35.69"),
    ("Node2vec", "Reddit")      -> ("11442.6", "271.98", "35.29"),
    ("Node2vec", "Flickr")      -> (">4h", "241.88", "12.86"),
    ("Node2vec", "YouTube")     -> (">4h", "169.93", "150.09"),
    ("Node2vec", "Twitter")     -> ("*", "*", "7221.4"),
    ("Node2vec", "Web-UK")      -> ("*", "*", "11933.7"),
    ("Metapath2vec", "ACM")     -> ("12.24", "2.36", "0.71"),
    ("Metapath2vec", "DBLP")    -> ("41.18", "16.79", "1.11"),
    ("Metapath2vec", "DBIS")    -> ("184.69", "24.24", "13.92"),
    ("Metapath2vec", "AMiner")  -> ("5320.9", "1107.3", "196.85"),
    ("Edge2vec", "ACM")         -> ("266.24", "40.47", "0.82"),
    ("Edge2vec", "DBLP")        -> ("1855.5", "64.85", "2.22"),
    ("Edge2vec", "DBIS")        -> (">4h", "1002.2", "25.6"),
    ("Edge2vec", "AMiner")      -> (">4h", ">4h", "609.97"),
    ("Fairwalk", "BlogCatalog") -> ("1998.7", "38.97", "2.35"),
    ("Fairwalk", "Amazon")      -> ("2362.3", "117.87", "37.47"),
    ("Fairwalk", "Reddit")      -> (">4h", "271.44", "31.50"),
  )

  /** One implementation's measured cell: None = paper-scale OOM (`*`).
    * Projections are reported for the total and for the walk phase alone
    * (the latter is what the paper's ">4h" cells cut off on for baselines
    * that never reach the learning phase).
    */
  final case class Cell(result: Option[RunResult], projectedTt: Option[Double],
                        projectedTw: Option[Double], learned: Boolean)

  final case class Row(modelName: String, dataset: String,
                       open: Cell, orig: Cell, mh: Cell)

  /** Big "-lite" graphs skip the baseline's single-threaded learning run
    * (the paper's own baselines never reach the learning phase there).
    */
  private def isBig(dataset: String): Boolean =
    GraphGen.datasets(dataset).numNodes >= 100000

  /** Walks per node and walk length of a -lite run (DESIGN.md §3). */
  val NumWalks = 2
  val WalkLen = 20
  val Seed = 11L

  /** Runs every cell of `Benchmarks`, learning on; the baseline runs on one partition. */
  def run(spark: SparkSession): Seq[Row] = {
    Benchmarks.flatMap { mb =>
      mb.datasets.map { ds =>
        val cfg = GraphGen.datasets(ds)
        val g0 = GraphGen.buildCSR(spark, cfg)
        val g = if (mb.needsGeneratedTypes) GraphGen.withGeneratedTypes(g0) else g0
        val bcG = spark.sparkContext.broadcast(g)
        try {
          val model = mb.model
          // The two "billion-edge" stand-ins get a lighter walk workload
          // (the projection folds the difference back in).
          val (nw, wl) = if (isBig(ds)) (1, 10) else (NumWalks, WalkLen)
          val mhRun = RunConfig(nw, wl, partitions = Experiments.Parallelism,
                                seed = Seed, learn = true)
          val mh = Experiments.runUnlessOOM(spark, bcG, cfg, model, Experiments.mhFactory, mhRun)

          // The learning phase is identical for both UniNet variants (the
          // paper's Tl columns are equal): reuse M-H's measured Tl.
          val origRaw = Experiments.runUnlessOOM(
            spark, bcG, cfg, model, Experiments.origFactory(model),
            mhRun.copy(learn = false))
          val orig = origRaw.map { r =>
            r.copy(times = r.times.copy(tLearn = mh.map(_.times.tLearn).getOrElse(0.0)))
          }

          val openRun = RunConfig(nw, wl, partitions = 1, seed = Seed, learn = !isBig(ds))
          val open = Experiments.runUnlessOOM(
            spark, bcG, cfg, model, Experiments.origFactory(model), openRun,
            openSourceImpl = true)

          def cell(res: Option[RunResult], linearDeg: Boolean, learned: Boolean) = Cell(
            res,
            res.map(r => Experiments.projectPaperSeconds(
              r.times.tTotal, cfg, g, linearDeg, nw, wl)),
            res.map(r => Experiments.projectPaperSeconds(
              r.times.tInit + r.times.tWalk, cfg, g, linearDeg, nw, wl)),
            learned)

          // Direct sampling costs O(deg) per step; alias and M-H cost O(1).
          val linearDeg = Experiments.origFactory(model) == DirectSamplerFactory
          Row(mb.modelName, ds,
              cell(open, linearDeg, learned = openRun.learn),
              cell(orig, linearDeg, learned = true),
              cell(mh, linearDeg = false, learned = true))
        } finally bcG.destroy()
      }
    }
  }

  private def fmtCell(c: Cell): Seq[String] = c.result match {
    case None => Seq("*", "*", "*", "*", "*")
    case Some(r) =>
      Seq(Experiments.fmtSec(r.times.tInit), Experiments.fmtSec(r.times.tWalk),
          Experiments.fmtSec(r.times.tLearn), Experiments.fmtSec(r.times.tTotal),
          c.projectedTt.map(Experiments.fmtProjected).getOrElse("-"))
  }

  def render(rows: Seq[Row]): String = {
    val header =
      Seq("Model", "Dataset") ++
        Seq("open.Ti", "open.Tw", "open.Tl", "open.Tt", "open.proj") ++
        Seq("orig.Ti", "orig.Tw", "orig.Tl", "orig.Tt", "orig.proj") ++
        Seq("mh.Ti", "mh.Tw", "mh.Tl", "mh.Tt", "mh.proj") ++
        Seq("Orig/MH", "Open/MH", "paper(open,orig,mh Tt)")
    val body = rows.map { r =>
      // Compare like phases: when a baseline skipped learning (paper's
      // "-" cells), speed up on Ti+Tw only.
      def speedup(base: Cell): Option[String] =
        for (o <- base.result; m <- r.mh.result) yield {
          val ratio =
            if (base.learned) o.times.tTotal / m.times.tTotal
            else (o.times.tInit + o.times.tWalk) / (m.times.tInit + m.times.tWalk)
          f"$ratio%.1fX"
        }
      val speedOrig = speedup(r.orig)
      val speedOpen = speedup(r.open)
      val paper = PaperTt.get((r.modelName, r.dataset))
        .map { case (a, b, c) => s"($a, $b, $c)" }.getOrElse("-")
      Seq(r.modelName, r.dataset) ++ fmtCell(r.open) ++ fmtCell(r.orig) ++ fmtCell(r.mh) ++
        Seq(speedOrig.getOrElse("-"), speedOpen.getOrElse("-"), paper)
    }
    "Table VI: end-to-end cost of five NRL models (seconds; '*' = OOM at paper scale on a 96 GB server)\n" +
      Experiments.renderTable(header, body)
  }
}
