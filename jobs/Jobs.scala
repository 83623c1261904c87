package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.{TableII, TableV, TableVI, TableVII}

/** Shared SparkSession bootstrap for the spark-submit entrypoints. */
private object JobSession {
  def make(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Reproduces Table II (rejection-sampler parameter sensitivity). */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("uninet-table2")
    try println(TableII.render(TableII.run(spark))) finally spark.stop()
  }
}

/** Reproduces Table V (dataset statistics). */
object TableVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("uninet-table5")
    try println(TableV.render(TableV.run(spark))) finally spark.stop()
  }
}

/** Reproduces Table VI (end-to-end cost of the five NRL models). */
object TableVIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("uninet-table6")
    try println(TableVI.render(TableVI.run(spark))) finally spark.stop()
  }
}

/** Reproduces Table VII (sampler comparison on billion-edge networks). */
object TableVIIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("uninet-table7")
    try println(TableVII.render(TableVII.run(spark))) finally spark.stop()
  }
}
