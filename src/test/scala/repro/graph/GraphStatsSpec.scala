package repro.graph

import repro.{Oracle, SparkSpec}
import repro.exp.TableV

/** The CSR the walks read, cross-checked against DuckDB queries over the
  * generator's edge frame (Table V's measurement path). The frame may
  * repeat a pair, so every query reads its distinct rows (`Edges`), which
  * keeps the oracle's deduplication independent of the CSR's.
  */
class GraphStatsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val cfg = GraphGen.datasets("ACM")
  private lazy val edges = GraphGen.edgesDF(spark, cfg).cache()
  private lazy val g = GraphGen.buildCSR(spark, cfg)

  private val Edges = "(SELECT DISTINCT src, dst, weight FROM edges)"

  /** The CSR's nodes with at least one edge: DuckDB's GROUP BY over the
    * edge frame has a row for exactly these.
    */
  private def linkedNodes: Seq[Int] = (0 until g.numNodes).filter(g.degree(_) > 0)

  test("edge count matches DuckDB") {
    Oracle.assertEquivalent(Seq(g.numUndirectedEdges).toDF("n"),
      s"SELECT count(*) AS n FROM $Edges", "edges" -> edges)
  }

  test("directed view doubles the edge count (oracle)") {
    Oracle.assertEquivalent(Seq(g.numDirectedEdges.toLong).toDF("n"),
      s"SELECT count(*) AS n FROM (SELECT src, dst FROM $Edges UNION ALL SELECT dst, src FROM $Edges)",
      "edges" -> edges)
  }

  test("per-node degrees match DuckDB") {
    val df = linkedNodes.map(v => (v.toLong, g.degree(v).toLong)).toDF("node", "degree")
    Oracle.assertEquivalent(df,
      s"""SELECT node, count(*) AS degree FROM (
         |  SELECT src AS node FROM $Edges UNION ALL SELECT dst AS node FROM $Edges
         |) GROUP BY node""".stripMargin,
      "edges" -> edges)
  }

  test("type histogram matches DuckDB") {
    val df = (0 until g.numNodes).groupBy(g.nodeType).toSeq
      .map { case (t, vs) => (t, vs.size.toLong) }.toDF("type", "cnt")
    // The 1/2, 1/3, 1/6 type rule restated in SQL over the node ids.
    Oracle.assertEquivalent(df,
      s"""SELECT CASE WHEN id % 6 <= 2 THEN 0 WHEN id % 6 <= 4 THEN 1 ELSE 2 END AS type,
         |       count(*) AS cnt
         |FROM range(${cfg.numNodes}) AS nodes(id) GROUP BY type""".stripMargin)
  }

  test("mean degree via SQL matches CSR meanDegree") {
    val s = TableV.forConfig(spark, cfg)
    assert(s.numEdges == g.numUndirectedEdges)
    assert(math.abs(s.meanDegree - g.meanDegree) < 1e-9)
    Oracle.assertEquivalent(Seq(s.meanDegree).toDF("deg"),
      s"SELECT 2.0 * count(*) / ${cfg.numNodes} AS deg FROM $Edges", "edges" -> edges)
  }

  test("weighted degree (strength) matches DuckDB") {
    // Weights are multiples of 1/1000, so the CSR's float sums round to
    // the same three decimals as DuckDB's double sums.
    val df = linkedNodes.map { v =>
      val s = (g.offset(v) until g.offset(v + 1)).map(g.weight(_).toDouble).sum
      (v.toLong, math.round(s * 1000) / 1000.0)
    }.toDF("node", "strength")
    Oracle.assertEquivalent(df,
      s"""SELECT node, round(sum(weight), 3) AS strength FROM (
         |  SELECT src AS node, CAST(weight AS DOUBLE) AS weight FROM $Edges
         |  UNION ALL SELECT dst AS node, CAST(weight AS DOUBLE) AS weight FROM $Edges
         |) GROUP BY node""".stripMargin,
      "edges" -> edges)
  }

  test("forConfig produces the Table V row shape") {
    val s = TableV.forConfig(spark, cfg)
    assert(s.name == "ACM")
    assert(s.numNodes == cfg.numNodes)
    assert(s.numEdges > 0)
    assert(math.abs(s.meanDegree - 2.0 * s.numEdges / s.numNodes) < 1e-9)
    assert(s.numNodeTypes == 3)
  }
}
