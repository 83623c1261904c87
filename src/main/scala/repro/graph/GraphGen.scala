package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}

/** Configuration of one synthetic "-lite" dataset standing in for a paper
  * dataset (DESIGN.md §4). `paperNodes` / `paperEdges` carry the real
  * dataset's published size so the memory model can reason at paper scale.
  */
final case class DatasetConfig(
    name: String,
    numNodes: Int,
    targetUndirectedEdges: Long,
    numTypes: Int,
    alpha: Double,
    seed: Long,
    paperNodes: Long,
    paperEdges: Long,
    paperMeanDegree: Double,
)

/** Synthetic substitutes for the paper's eleven (plus LiveJournal = twelve
  * named) datasets. Real downloads are unavailable offline, so each dataset
  * is a deterministic power-law graph with the paper's mean degree, scaled
  * ~100-1000x down (DESIGN.md §3-4 documents the substitution).
  */
object GraphGen {

  /** All dataset configs keyed by the paper's dataset names. */
  val datasets: Map[String, DatasetConfig] = Seq(
    //                 name          |V|     ~|E|undirected T  alpha seed  paper|V|     paper|E|        deg
    DatasetConfig("BlogCatalog",    3_000,      97_000L, 1, 0.45, 11,      10_300L,       668_000L,  64.9),
    DatasetConfig("Flickr",        10_000,     730_000L, 1, 0.45, 12,      80_500L,    11_800_000L, 146.6),
    DatasetConfig("Amazon",        30_000,      85_000L, 1, 0.45, 13,     335_000L,     1_900_000L,  5.67),
    DatasetConfig("Reddit",        20_000,     500_000L, 1, 0.45, 14,     231_000L,    11_600_000L, 50.21),
    DatasetConfig("YouTube",       50_000,     130_000L, 1, 0.50, 15,   1_100_000L,     6_000_000L,   5.3),
    DatasetConfig("LiveJournal",   60_000,     530_000L, 1, 0.50, 16,   4_800_000L,    86_200_000L,  17.8),
    DatasetConfig("Twitter",      100_000,   3_500_000L, 1, 0.45, 17,  41_600_000L, 2_900_000_000L,  69.7),
    DatasetConfig("Web-UK",       150_000,   4_700_000L, 1, 0.45, 18, 105_900_000L, 6_600_000_000L,  62.6),
    DatasetConfig("ACM",            3_000,       4_700L, 3, 0.50, 19,      11_200L,        34_800L,  3.11),
    DatasetConfig("DBLP",           8_000,      36_000L, 3, 0.50, 20,      37_800L,       341_600L,  9.04),
    DatasetConfig("DBIS",          15_000,      30_000L, 3, 0.50, 21,     134_100L,       530_600L,  3.96),
    DatasetConfig("AMiner",        40_000,     102_000L, 3, 0.50, 22,   4_900_000L,    25_000_000L,  5.10),
  ).map(c => c.name -> c).toMap

  /** Node type of node v when the network is heterogeneous: three types
    * with 1/2, 1/3, 1/6 proportions (the paper's datasets all have 3).
    * Also used when the fairwalk benchmark needs generated type info on a
    * homogeneous network (the paper does the same, citing KnightKing).
    */
  def typeOf(v: Int): Byte = (v % 6) match {
    case 0 | 1 | 2 => 0
    case 3 | 4     => 1
    case _         => 2
  }

  /** Undirected power-law edge list (src < dst, weight) for `cfg` as a
    * DataFrame: skewed endpoint pairs with self-loops dropped and
    * normalized to src < dst. The weight is a symmetric hash of the
    * endpoints in [0.5, 1.5), so both directions of an edge agree.
    * Deterministic in the config.
    *
    * A hot pair can be drawn more than once, and the frame keeps every
    * copy: deduplicating here would cost a shuffle, while the rows are
    * generated and collected by 4 tasks with no exchange. The copies of a
    * pair carry the same weight, and `CSRGraph.fromUndirectedEdges`, which
    * `buildCSR` calls, merges them into one edge. Callers that count or
    * query the frame's edges directly take its distinct rows.
    */
  def edgesDF(spark: SparkSession, cfg: DatasetConfig): DataFrame = {
    // Oversample: dropped self-loops and the repeats of hot pairs that the
    // CSR merges cost a few percent of the edges (measured ~3-4% at these
    // scales).
    val rows = (cfg.targetUndirectedEdges * 1.05).toLong
    // rand(seed) seeds each partition with seed + its index, so a fixed 4
    // partitions (local[*] on the 4-core host that recorded the pinned edge
    // lists) keeps the rows independent of the host's core count.
    spark.range(0, rows, 1, 4)
      .select(zipfNode(cfg, cfg.seed) as "src", zipfNode(cfg, cfg.seed + 1) as "dst")
      .where(col("src") =!= col("dst"))
      .select(least(col("src"), col("dst")) as "src",
              greatest(col("src"), col("dst")) as "dst")
      .select(col("src"), col("dst"),
              (lit(0.5) + pmod(hash(col("src"), col("dst")), lit(1000)).cast(DoubleType) / 1000.0) as "weight")
  }

  /** One skewed endpoint column over 0-based node ids: node k drawn with
    * probability ~ (k+1)^-alpha for alpha in (0, 1), via the exact inverse
    * CDF of the truncated continuous power law,
    *   x = (1 + u * (n^(1-alpha) - 1))^(1/(1-alpha)).
    * The alpha < 1 regime keeps the head hot but not degenerate — node 0
    * is ~n^alpha times hotter than node n.
    */
  private def zipfNode(cfg: DatasetConfig, seed: Long): Column = {
    val (nNodes, alpha) = (cfg.numNodes.toLong, cfg.alpha)
    require(alpha > 0 && alpha < 1, s"graph endpoint skew requires alpha in (0,1), got $alpha")
    val span = math.pow(nNodes.toDouble, 1.0 - alpha) - 1.0
    least(lit(nNodes - 1),
          greatest(lit(0L),
            (pow(lit(1.0) + rand(seed) * span, lit(1.0 / (1.0 - alpha))) - 1.0).cast(LongType)))
  }

  /** Build the broadcastable CSR for `cfg`: collects the edge frame, whose
    * repeated rows `CSRGraph.fromUndirectedEdges` merges.
    */
  def buildCSR(spark: SparkSession, cfg: DatasetConfig): CSRGraph = {
    val rows = edgesDF(spark, cfg).collect()
    val m = rows.length
    val us = new Array[Int](m); val vs = new Array[Int](m); val ws = new Array[Float](m)
    var i = 0
    while (i < m) {
      val r = rows(i)
      us(i) = r.getLong(0).toInt; vs(i) = r.getLong(1).toInt; ws(i) = r.getDouble(2).toFloat
      i += 1
    }
    val types =
      if (cfg.numTypes == 1) null
      else Array.tabulate[Byte](cfg.numNodes)(typeOf)
    CSRGraph.fromUndirectedEdges(cfg.numNodes, us, vs, ws, types, math.max(cfg.numTypes, 1))
  }

  /** A heterogeneous view of a homogeneous dataset — fairwalk needs type
    * info on networks that have none, mirroring the paper's
    * randomly-generated type assignment. Its nodes take `typeOf`'s three
    * types.
    */
  def withGeneratedTypes(g: CSRGraph): CSRGraph = {
    if (g.isHeterogeneous) g
    else new CSRGraph(g.numNodes, g.offsets, g.neighbors, g.weights,
                      Array.tabulate[Byte](g.numNodes)(typeOf), 3)
  }

  /** Planted-partition graph (stochastic block model): node v sits in
    * block `v % blocks`; each node pair is joined with probability `pIn`
    * when both share a block and `pOut` otherwise. Unit weights,
    * deterministic in `seed`. Enumerates all pairs, so it is meant for
    * graphs of a few thousand nodes.
    */
  def plantedPartition(numNodes: Int, blocks: Int, pIn: Double, pOut: Double,
                       seed: Long): CSRGraph = {
    val rng = new java.util.SplittableRandom(seed)
    val us = Array.newBuilder[Int]; val vs = Array.newBuilder[Int]
    for (u <- 0 until numNodes; v <- u + 1 until numNodes) {
      if (rng.nextDouble() < (if (u % blocks == v % blocks) pIn else pOut)) { us += u; vs += v }
    }
    val (su, sv) = (us.result(), vs.result())
    CSRGraph.fromUndirectedEdges(numNodes, su, sv, Array.fill(su.length)(1f))
  }
}
