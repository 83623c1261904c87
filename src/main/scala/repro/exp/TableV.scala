package repro.exp

import org.apache.spark.sql.SparkSession

import repro.graph.{DatasetConfig, GraphGen}

/** Table V: dataset statistics — our synthetic "-lite" substitutes next
  * to the paper's real dataset sizes (the scale-down is the documented
  * substitution; the mean degree is what the generators target).
  */
object TableV {

  val Order: Seq[String] = Seq(
    "BlogCatalog", "Flickr", "Amazon", "Reddit", "YouTube", "LiveJournal",
    "Twitter", "Web-UK", "ACM", "DBLP", "DBIS", "AMiner")

  /** Dataset statistics row matching Table V's columns. */
  final case class DatasetStats(name: String, numNodes: Long, numEdges: Long,
                                meanDegree: Double, numNodeTypes: Int)

  final case class Row(stats: DatasetStats, paperNodes: Long, paperEdges: Long,
                       paperMeanDegree: Double)

  /** The Table V statistics of one dataset: |E| counts the undirected
    * edges of the CSR the walks read, and the mean degree is 2|E|/|V|.
    */
  def forConfig(spark: SparkSession, cfg: DatasetConfig): DatasetStats = {
    val e = GraphGen.buildCSR(spark, cfg).numUndirectedEdges
    DatasetStats(cfg.name, cfg.numNodes, e, 2.0 * e / cfg.numNodes, cfg.numTypes)
  }

  def run(spark: SparkSession): Seq[Row] =
    Order.map { n =>
      val cfg = GraphGen.datasets(n)
      Row(forConfig(spark, cfg), cfg.paperNodes, cfg.paperEdges, cfg.paperMeanDegree)
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
