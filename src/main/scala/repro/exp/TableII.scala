package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.RunConfig
import repro.graph.GraphGen
import repro.model.Node2Vec
import repro.sampler.KnightKingSamplerFactory

/** Table II: acceptance ratio and sampling time of the *rejection* edge
  * sampler running node2vec on Flickr, across hyper-parameter settings —
  * the paper's motivation that rejection sampling is parameter-sensitive.
  */
object TableII {

  val Configs: Seq[(Double, Double)] =
    Seq((1.0, 0.25), (1.0, 4.0), (1.0, 1.0), (4.0, 1.0), (0.25, 1.0))

  /** Paper's measured (time sec, acceptance ratio, time ratio) per (p,q). */
  val Paper: Map[(Double, Double), (Double, Double, Double)] = Map(
    (1.0, 0.25) -> (6.74, 0.86, 1.11),
    (1.0, 4.0)  -> (13.88, 0.36, 2.28),
    (1.0, 1.0)  -> (6.08, 1.00, 1.00),
    (4.0, 1.0)  -> (6.21, 0.99, 1.02),
    (0.25, 1.0) -> (15.81, 0.25, 2.60),
  )

  final case class Row(p: Double, q: Double, timeSec: Double, acRatio: Double, timeRatio: Double)

  val Seed = 7L

  /** The paper's 10 walks of length 80 per node, `Experiments.Repeats` runs per (p, q). */
  def run(spark: SparkSession): Seq[Row] = {
    val bcG = spark.sparkContext.broadcast(GraphGen.buildCSR(spark, GraphGen.datasets("Flickr")))
    try {
      def once(p: Double, q: Double) = repro.core.Pipeline.run(
        spark, bcG, new Node2Vec(p, q), new KnightKingSamplerFactory(optimized = false),
        RunConfig(Experiments.PaperWalks, Experiments.PaperWalkLen,
                  partitions = Experiments.Parallelism, seed = Seed))
      once(1.0, 1.0) // discarded warm-up: JIT-compile the sampling loops
      val raw = Configs.map { case (p, q) =>
        val runs = (1 to Experiments.Repeats).map(_ => once(p, q))
        // Min wall time de-noises scheduler jitter; acceptance is stable.
        (p, q, runs.map(_.times.tWalk).min, runs.last.acceptanceRatio)
      }
      val base = raw.collectFirst { case (1.0, 1.0, t, _) => t }.get
      raw.map { case (p, q, t, ac) => Row(p, q, t, ac, t / base) }
    } finally bcG.destroy()
  }

  def render(rows: Seq[Row]): String = {
    val header = Seq("(p,q)", "Time(s)", "AC Ratio", "Time Ratio",
                     "paper Time(s)", "paper AC", "paper TimeRatio")
    val body = rows.map { r =>
      val (pt, pac, ptr) = Paper((r.p, r.q))
      Seq(s"(${r.p},${r.q})", Experiments.fmtSec(r.timeSec), f"${r.acRatio}%.2f",
          f"${r.timeRatio}%.2fX", pt.toString, pac.toString, f"$ptr%.2fX")
    }
    "Table II: node2vec with rejection edge sampler on Flickr\n" +
      Experiments.renderTable(header, body)
  }
}
