package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.model.DeepWalk
import repro.sampler.{HighWeightInit, MHSamplerFactory, SamplerFactory}

/** Walk-corpus analytics in Spark SQL, cross-checked against DuckDB: the
  * oracle guards the DataFrame aggregation paths the harnesses use for
  * walk statistics (visit counts, transitions, lengths).
  */
class WalkCorpusOracleSpec extends SparkSpec {

  private lazy val corpusDF = {
    val g = TestGraphs.mediumGraph(n = 50, mult = 2)
    val bcG = spark.sparkContext.broadcast(g)
    val (rdd, _) = UniNet.generateWalksPrepared(
      spark, bcG, new DeepWalk,
      spark.sparkContext.broadcast(new MHSamplerFactory(HighWeightInit()): SamplerFactory),
      2, 6, 4, 53L)
    import spark.implicits._
    rdd.zipWithIndex().flatMap { case (w, id) =>
      w.zipWithIndex.map { case (node, pos) => (id, pos, node) }
    }.toDF("walk_id", "pos", "node").cache()
  }

  test("visit counts per node match DuckDB") {
    val df = corpusDF.groupBy(col("node")).agg(count(lit(1)) as "visits")
    Oracle.assertEquivalent(df,
      "SELECT node, count(*) AS visits FROM walks GROUP BY node",
      "walks" -> corpusDF)
  }

  test("walk lengths match DuckDB") {
    val df = corpusDF.groupBy(col("walk_id")).agg(count(lit(1)) as "len")
    Oracle.assertEquivalent(df,
      "SELECT walk_id, count(*) AS len FROM walks GROUP BY walk_id",
      "walks" -> corpusDF)
  }

  test("transition counts (self-join on position) match DuckDB") {
    val a = corpusDF.as("a"); val b = corpusDF.as("b")
    val df = a.join(b,
        col("a.walk_id") === col("b.walk_id") && col("b.pos") === col("a.pos") + 1)
      .groupBy(col("a.node") as "src", col("b.node") as "dst")
      .agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(df,
      """SELECT a.node AS src, b.node AS dst, count(*) AS cnt
        |FROM walks a JOIN walks b
        |  ON a.walk_id = b.walk_id AND CAST(b.pos AS BIGINT) = CAST(a.pos AS BIGINT) + 1
        |GROUP BY a.node, b.node""".stripMargin,
      "walks" -> corpusDF)
  }

  test("distinct start nodes match DuckDB") {
    val df = corpusDF.where(col("pos") === 0)
      .agg(countDistinct(col("node")) as "starts")
    Oracle.assertEquivalent(df,
      "SELECT count(DISTINCT node) AS starts FROM walks WHERE CAST(pos AS INT) = 0",
      "walks" -> corpusDF)
  }
}
