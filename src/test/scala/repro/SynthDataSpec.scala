package repro

import org.apache.spark.sql.functions._

/** Generator primitives for the graph workloads. */
class SynthDataSpec extends SparkSpec {

  test("zipfPairs: endpoints within range, deterministic") {
    val df = SynthData.zipfPairs(spark, rows = 5000, nNodes = 100, seed = 3)
    val rows = df.collect()
    rows.foreach { r =>
      assert(r.getLong(0) >= 0 && r.getLong(0) < 100)
      assert(r.getLong(1) >= 0 && r.getLong(1) < 100)
    }
    assert(df.collect().map(_.toSeq).toSeq == rows.map(_.toSeq).toSeq)
  }

  test("zipfPairs: low ids are hot (skew)") {
    val df = SynthData.zipfPairs(spark, rows = 20000, nNodes = 1000, alpha = 0.6, seed = 5)
    val hot = df.where(col("src") < 10).count()
    assert(hot > 20000 / 50, s"only $hot hits in the head") // way above uniform's 1%
  }

  test("powerLawEdges: src < dst, no self loops, deduplicated") {
    val df = SynthData.powerLawEdges(spark, nNodes = 200, rows = 5000, seed = 7)
    val rows = df.collect()
    rows.foreach(r => assert(r.getLong(0) < r.getLong(1)))
    assert(rows.map(r => (r.getLong(0), r.getLong(1))).distinct.length == rows.length)
  }

  test("powerLawEdges: symmetric hash weights in [0.5, 1.5)") {
    SynthData.powerLawEdges(spark, nNodes = 200, rows = 3000, seed = 9).collect().foreach { r =>
      val w = r.getDouble(2)
      assert(w >= 0.5 && w < 1.5)
    }
  }
}
