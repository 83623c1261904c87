package repro.graph

import repro.SparkSpec

/** Synthetic dataset generator checks: determinism, bounds, and agreement
  * between the DataFrame edge list and the CSR built from it.
  */
class GraphGenSpec extends SparkSpec {

  test("all twelve paper datasets are configured") {
    assert(GraphGen.datasets.size == 12)
    assert(GraphGen.datasets.keySet.contains("Twitter"))
    assert(GraphGen.datasets.keySet.contains("Web-UK"))
    assert(GraphGen.datasets.values.count(_.numTypes == 3) == 4)
  }

  test("paper sizes in configs match Table V") {
    val t = GraphGen.datasets("Twitter")
    assert(t.paperNodes == 41_600_000L && t.paperEdges == 2_900_000_000L)
    val b = GraphGen.datasets("BlogCatalog")
    assert(b.paperNodes == 10_300L && b.paperEdges == 668_000L)
  }

  private val cfg = GraphGen.datasets("ACM")

  /** The edge frame's distinct rows as (src, dst, weight), sorted by
    * (src, dst). The frame itself may repeat a pair.
    */
  private def distinctRows(name: String): Array[(Long, Long, Double)] =
    GraphGen.edgesDF(spark, GraphGen.datasets(name)).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).distinct.sortBy(r => (r._1, r._2))

  /** Row count and SHA-256 prefix of the edge frame's distinct rows sorted
    * by (src, dst), each row hashed as src, dst and the weight's bits.
    */
  private def edgesDigest(name: String): (Int, String) = {
    val rows = distinctRows(name)
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(24)
    rows.foreach { case (s, d, w) =>
      buf.clear(); buf.putLong(s).putLong(d).putLong(java.lang.Double.doubleToRawLongBits(w))
      md.update(buf.array())
    }
    (rows.length, md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString)
  }

  test("edgesDF golden: ACM and BlogCatalog rows are pinned") {
    assert(edgesDigest("ACM") == (4927, "3739be402b636278"))
    assert(edgesDigest("BlogCatalog") == (98834, "dd9ef8d94d168405"))
  }

  test("buildCSR's undirected edges are the frame's distinct rows: ACM and BlogCatalog") {
    for (name <- Seq("ACM", "BlogCatalog")) {
      val g = GraphGen.buildCSR(spark, GraphGen.datasets(name))
      val csrEdges = for {
        v <- 0 until g.numNodes; e <- g.offset(v) until g.offset(v + 1) if v < g.dst(e)
      } yield (v.toLong, g.dst(e).toLong, g.weight(e))
      val rows = distinctRows(name).map { case (s, d, w) => (s, d, w.toFloat) }
      assert(csrEdges.size == rows.length, name)
      assert(csrEdges.toSet == rows.toSet, name)
    }
  }

  test("edgesDF is deterministic in the config") {
    val a = GraphGen.edgesDF(spark, cfg).collect().map(_.toSeq).toSet
    val b = GraphGen.edgesDF(spark, cfg).collect().map(_.toSeq).toSet
    assert(a == b)
    assert(a.nonEmpty)
  }

  test("edge endpoints are valid, distinct, and normalized src < dst") {
    GraphGen.edgesDF(spark, cfg).collect().foreach { r =>
      val (s, d) = (r.getLong(0), r.getLong(1))
      assert(s >= 0 && d < cfg.numNodes && s < d)
    }
    // The frame may repeat a pair; the CSR built from it holds each once.
    val g = GraphGen.buildCSR(spark, cfg)
    for (v <- 0 until g.numNodes) {
      val slice = (g.offset(v) until g.offset(v + 1)).map(g.dst)
      assert(slice.distinct.length == slice.length, s"node $v repeats a neighbour")
    }
  }

  test("edge weights are in [0.5, 1.5)") {
    GraphGen.edgesDF(spark, cfg).collect().foreach { r =>
      val w = r.getDouble(2)
      assert(w >= 0.5 && w < 1.5)
    }
  }

  test("edge count lands near the configured target") {
    val n = GraphGen.edgesDF(spark, cfg).count()
    assert(n > cfg.targetUndirectedEdges * 0.5 && n < cfg.targetUndirectedEdges * 1.6,
           s"got $n for target ${cfg.targetUndirectedEdges}")
  }

  test("buildCSR matches the edge frame") {
    val df = GraphGen.edgesDF(spark, cfg)
    val g = GraphGen.buildCSR(spark, cfg)
    assert(g.numNodes == cfg.numNodes)
    assert(g.numUndirectedEdges == df.distinct().count())
    // Spot-check a few edges exist in both directions.
    df.limit(20).collect().foreach { r =>
      assert(g.hasEdge(r.getLong(0).toInt, r.getLong(1).toInt))
      assert(g.hasEdge(r.getLong(1).toInt, r.getLong(0).toInt))
    }
  }

  test("heterogeneous datasets carry 3 node types with 1/2,1/3,1/6 proportions") {
    val g = GraphGen.buildCSR(spark, cfg)
    assert(g.isHeterogeneous && g.numTypes == 3)
    val counts = (0 until g.numNodes).groupBy(g.nodeType).view.mapValues(_.size).toMap
    assert(math.abs(counts(0).toDouble / g.numNodes - 0.5) < 0.05)
    assert(math.abs(counts(1).toDouble / g.numNodes - 1.0 / 3) < 0.05)
    assert(math.abs(counts(2).toDouble / g.numNodes - 1.0 / 6) < 0.05)
  }

  test("homogeneous datasets build untyped CSRs") {
    val g = GraphGen.buildCSR(spark, GraphGen.datasets("BlogCatalog"))
    assert(!g.isHeterogeneous)
  }

  test("withGeneratedTypes adds types without touching the topology") {
    val g = GraphGen.buildCSR(spark, GraphGen.datasets("BlogCatalog"))
    val t = GraphGen.withGeneratedTypes(g)
    assert(t.isHeterogeneous && t.numTypes == 3)
    assert(t.numDirectedEdges == g.numDirectedEdges)
    assert(t.offsets eq g.offsets)
    // Idempotent on an already-typed graph.
    assert(GraphGen.withGeneratedTypes(t) eq t)
  }

  test("degree skew: the generator produces a heavy head") {
    val g = GraphGen.buildCSR(spark, GraphGen.datasets("BlogCatalog"))
    val maxDegree = (0 until g.numNodes).map(g.degree).max
    assert(maxDegree > 5 * g.meanDegree, s"max=$maxDegree mean=${g.meanDegree}")
  }

  test("plantedPartition: deterministic, and edges follow the block probabilities") {
    val g = GraphGen.plantedPartition(600, blocks = 3, pIn = 0.05, pOut = 0.005, seed = 9L)
    val again = GraphGen.plantedPartition(600, blocks = 3, pIn = 0.05, pOut = 0.005, seed = 9L)
    assert(g.neighbors.sameElements(again.neighbors) && g.offsets.sameElements(again.offsets))
    val inBlock = (0 until g.numNodes).map { v =>
      (g.offset(v) until g.offset(v + 1)).count(e => g.dst(e) % 3 == v % 3)
    }.sum
    // Per node: 199 same-block candidates at 0.05, 400 others at 0.005.
    val (expIn, expOut) = (199 * 0.05 * 600, 400 * 0.005 * 600)
    assert(math.abs(inBlock - expIn) < 0.1 * expIn)
    assert(math.abs(g.numDirectedEdges - inBlock - expOut) < 0.2 * expOut)
  }
}
