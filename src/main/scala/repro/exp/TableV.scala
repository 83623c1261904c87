package repro.exp

import org.apache.spark.sql.SparkSession

import repro.graph.{DatasetStats, GraphGen, GraphStats}

/** Table V: dataset statistics — our synthetic "-lite" substitutes next
  * to the paper's real dataset sizes (the scale-down is the documented
  * substitution; the mean degree is what the generators target).
  */
object TableV {

  val Order: Seq[String] = Seq(
    "BlogCatalog", "Flickr", "Amazon", "Reddit", "YouTube", "LiveJournal",
    "Twitter", "Web-UK", "ACM", "DBLP", "DBIS", "AMiner")

  final case class Row(stats: DatasetStats, paperNodes: Long, paperEdges: Long,
                       paperMeanDegree: Double)

  def run(spark: SparkSession): Seq[Row] =
    Order.map { n =>
      val cfg = GraphGen.datasets(n)
      Row(GraphStats.forConfig(spark, cfg), cfg.paperNodes, cfg.paperEdges, cfg.paperMeanDegree)
    }

  def render(rows: Seq[Row]): String = {
    val header = Seq("Dataset", "|V|", "|E|", "MeanDeg", "#Types",
                     "paper |V|", "paper |E|", "paper Deg")
    val body = rows.map { r =>
      Seq(r.stats.name, r.stats.numNodes.toString, r.stats.numEdges.toString,
          f"${r.stats.meanDegree}%.2f", r.stats.numNodeTypes.toString,
          r.paperNodes.toString, r.paperEdges.toString, r.paperMeanDegree.toString)
    }
    "Table V: dataset statistics (-lite synthetic vs paper)\n" +
      Experiments.renderTable(header, body)
  }
}
