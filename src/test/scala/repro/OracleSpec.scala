package repro

/** The DuckDB oracle itself: equal row sets compare equal in any order. */
class OracleSpec extends SparkSpec {

  test("rows whose fields concatenate alike compare in any arrival order") {
    import spark.implicits._
    // The first two rows concatenate alike, the second two also when joined
    // by U+0001; Spark and DuckDB return each pair in opposite orders.
    for (rows <- Seq(Seq(("1", "23"), ("12", "3")), Seq(("a", "\u0001b"), ("a\u0001", "b")))) {
      val df = rows.toDF("a", "b")
      Oracle.assertEquivalent(df, "SELECT a, b FROM t ORDER BY a DESC", "t" -> df)
    }
  }
}
