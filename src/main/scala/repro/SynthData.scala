package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Skewed synthetic edge lists for the graph workloads: power-law
  * endpoint pairs and the undirected weighted edge list built from them.
  * Node ids are 0-based ints in [0, n). Generators are deterministic in
  * their seed, so the DuckDB oracle sees identical input.
  */
object SynthData {

  /** One skewed endpoint column over 0-based node ids: node k drawn with
    * probability ~ (k+1)^-alpha for alpha in (0, 1), via the exact inverse
    * CDF of the truncated continuous power law,
    *   x = (1 + u * (n^(1-alpha) - 1))^(1/(1-alpha)).
    * The alpha < 1 regime keeps the head hot but not degenerate — node 0
    * is ~n^alpha times hotter than node n.
    */
  private def zipfNode(nNodes: Long, alpha: Double, seed: Long) = {
    require(alpha > 0 && alpha < 1, s"graph endpoint skew requires alpha in (0,1), got $alpha")
    val span = math.pow(nNodes.toDouble, 1.0 - alpha) - 1.0
    least(lit(nNodes - 1),
          greatest(lit(0L),
            (pow(lit(1.0) + rand(seed) * span, lit(1.0 / (1.0 - alpha))) - 1.0).cast(LongType)))
  }

  /** Skewed random endpoint pairs — the raw material for power-law graphs.
    * Returns columns (src, dst); self-loops are kept (callers filter).
    */
  def zipfPairs(spark: SparkSession, rows: Long, nNodes: Long,
                alpha: Double = 0.5, seed: Long = 7): DataFrame = {
    spark.range(rows).select(
      zipfNode(nNodes, alpha, seed)     as "src",
      zipfNode(nNodes, alpha, seed + 1) as "dst",
    )
  }

  /** Undirected power-law edge list: (src < dst, weight), deduplicated,
    * deterministic in (nNodes, rows, alpha, seed). Edge weight is a
    * symmetric hash of the endpoints in [0.5, 1.5) so both directions of
    * an edge always agree, matching a weighted undirected network.
    */
  def powerLawEdges(spark: SparkSession, nNodes: Long, rows: Long,
                    alpha: Double = 0.5, seed: Long = 7): DataFrame = {
    zipfPairs(spark, rows, nNodes, alpha, seed)
      .where(col("src") =!= col("dst"))
      .select(least(col("src"), col("dst")) as "src",
              greatest(col("src"), col("dst")) as "dst")
      .distinct()
      .select(col("src"), col("dst"),
              (lit(0.5) + pmod(hash(col("src"), col("dst")), lit(1000)).cast(DoubleType) / 1000.0) as "weight")
  }
}
