package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.RunConfig
import repro.graph.GraphGen
import repro.model.Node2Vec
import repro.sampler._

/** Table VII: random-walk generation cost of node2vec on the two
  * "billion-edge" networks, across seven sampler configurations and five
  * (p, q) settings. `*` cells come from the paper-scale memory model
  * (96 GB server): the alias sampler's O(d·#state) tables OOM everywhere,
  * rejection/KnightKing's static proposal tables OOM on Web-UK, while
  * M-H's one-int-per-state and the memory-aware budget always fit.
  */
object TableVII {

  val Configs: Seq[(Double, Double)] =
    Seq((1.0, 0.25), (0.25, 1.0), (1.0, 1.0), (1.0, 4.0), (4.0, 1.0))

  val Datasets: Seq[String] = Seq("Twitter", "Web-UK")

  /** (sampler row label, factory builder). Memory-aware is the alias
    * sampler under a byte budget, set per graph to UniNet's own
    * consumption, as in the paper.
    */
  def samplerRows(budget: Long): Seq[(String, () => SamplerFactory)] = Seq(
    "Alias"          -> (() => new AliasSamplerFactory),
    "Rejection"      -> (() => new KnightKingSamplerFactory(optimized = false)),
    "KnightKing"     -> (() => new KnightKingSamplerFactory),
    "Memory-Aware"   -> (() => new AliasSamplerFactory(budget)),
    "UniNet(Rand)"   -> (() => new MHSamplerFactory(RandomInit)),
    "UniNet(Burn)"   -> (() => new MHSamplerFactory(BurnInInit(100))),
    "UniNet(Weight)" -> (() => new MHSamplerFactory(HighWeightInit())),
  )

  /** Paper cells (seconds, "*" = OOM), [dataset][sampler][(p,q)]. */
  val Paper: Map[(String, String, (Double, Double)), String] = {
    def row(ds: String, s: String, vals: Seq[String]) =
      Configs.zip(vals).map { case (pq, v) => (ds, s, pq) -> v }
    (row("Twitter", "Alias", Seq("*", "*", "*", "*", "*")) ++
      row("Twitter", "Rejection", Seq("4228.02", "11304.2", "4092.19", "10084.9", "4157.18")) ++
      row("Twitter", "KnightKing", Seq("3601.43", "1601.31", "1251.30", "9307.82", "3310.29")) ++
      row("Twitter", "Memory-Aware", Seq("4103.29", "8059.83", "3982.45", "8045.32", "4028.53")) ++
      row("Twitter", "UniNet(Rand)", Seq("2535.48", "2468.39", "2503.48", "2493.29", "2539.40")) ++
      row("Twitter", "UniNet(Burn)", Seq("4363.32", "4225.56", "4376.47", "4301.55", "4378.56")) ++
      row("Twitter", "UniNet(Weight)", Seq("3320.43", "3702.18", "2801.20", "3245.10", "3702.17")) ++
      row("Web-UK", "Alias", Seq("*", "*", "*", "*", "*")) ++
      row("Web-UK", "Rejection", Seq("*", "*", "*", "*", "*")) ++
      row("Web-UK", "KnightKing", Seq("*", "*", "*", "*", "*")) ++
      row("Web-UK", "Memory-Aware", Seq("6895.33", "12053.82", "5903.24", "11393.63", "6023.64")) ++
      row("Web-UK", "UniNet(Rand)", Seq("2989.39", "2830.48", "3107.99", "2846.49", "3028.39")) ++
      row("Web-UK", "UniNet(Burn)", Seq("6628.33", "6273.48", "6675.29", "6518.90", "6597.29")) ++
      row("Web-UK", "UniNet(Weight)", Seq("4820.30", "5220.30", "3184.28", "3823.40", "4502.10"))).toMap
  }

  /** One measured cell: total Ti+Tw seconds and the sampler's
    * proposals/weight-evaluations per emitted step. At -lite
    * scale the time cells are dominated by the fixed per-run costs, so
    * sensitivity claims are asserted on `trialsPerStep` (the quantity the
    * paper's timing differences are made of).
    */
  final case class CellVII(timeSec: Double, trialsPerStep: Double)

  final case class Row(dataset: String, sampler: String,
                       cells: Seq[Option[CellVII]]) // per (p,q); None = OOM

  /** Walks per node and walk length: walks only, no learning. */
  val NumWalks = 1
  val WalkLen = 20
  val Seed = 13L

  /** Runs every cell over `Datasets`, `Experiments.Repeats` times after a
    * warm-up; repeat r uses seed `Seed + r`.
    */
  def run(spark: SparkSession): Seq[Row] = {
    val base = RunConfig(NumWalks, WalkLen, partitions = Experiments.Parallelism, seed = Seed)
    Datasets.flatMap { ds =>
      val cfg = GraphGen.datasets(ds)
      val g = GraphGen.buildCSR(spark, cfg)
      val bcG = spark.sparkContext.broadcast(g)
      try {
        val budget = Experiments.memoryAwareBudget(g, new Node2Vec(1, 1))
        // Discarded warm-up so the first measured row is not paying JIT.
        Experiments.runUnlessOOM(
          spark, bcG, cfg, new Node2Vec(1, 1), new MHSamplerFactory(RandomInit), base)
        samplerRows(budget).map { case (label, mkFactory) =>
          val cells = Configs.map { case (p, q) =>
            val model = new Node2Vec(p, q)
            val runs = (1 to Experiments.Repeats).flatMap { rep =>
              Experiments.runUnlessOOM(
                spark, bcG, cfg, model, mkFactory(), base.copy(seed = Seed + rep)
              ).map(r => CellVII(r.times.tInit + r.times.tWalk, r.trialsPerStep))
            }
            // Min over repeats de-noises GC/scheduler jitter.
            if (runs.isEmpty) None else Some(runs.minBy(_.timeSec))
          }
          Row(ds, label, cells)
        }
      } finally bcG.destroy()
    }
  }

  def render(rows: Seq[Row]): String = {
    val header = Seq("Dataset", "Sampler") ++
      Configs.map { case (p, q) => s"($p,$q)" } ++
      Configs.map { case (p, q) => s"paper($p,$q)" }
    val body = rows.map { r =>
      Seq(r.dataset, r.sampler) ++
        r.cells.map(_.map(c => Experiments.fmtSec(c.timeSec)).getOrElse("*")) ++
        Configs.map(pq => Paper((r.dataset, r.sampler, pq)))
    }
    "Table VII: node2vec random-walk generation cost (seconds; '*' = OOM at paper scale)\n" +
      Experiments.renderTable(header, body)
  }
}
