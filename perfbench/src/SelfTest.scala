package perfbench

/** Self-test of the benchmark at toy size: every workload shape runs
  * untraced and traced on a tiny graph, and a corpus with an injected
  * non-edge hop or a lost walk is counted as failed. `run.py --selftest`
  * runs this and then checks each printed result against the metric
  * names and units in BENCHMARK.json.
  */
object SelfTest {
  def main(args: Array[String]): Unit = {
    val cores = Runtime.getRuntime.availableProcessors()
    val spark = Bench.session(cores, sys.props.getOrElse("perfbench.localDir", "spark-local"))
    var ok = true
    def expect(cond: Boolean, what: String): Unit =
      if (!cond) { ok = false; Console.err.println(s"selftest FAILED: $what") }
    try {
      val seeds = Seeds(1L)
      for (w <- Bench.workloads; trace <- Seq(false, true)) {
        val toy = w.copy(dataset = w.dataset.copy(numNodes = 300, targetUndirectedEdges = 3000),
                         numWalks = 1, walkLen = 10)
        val run = new Runner(spark, toy, seeds, cores)
        val r = if (trace) run.traced(0) else run.untraced(0)
        expect(r.correct && r.failed == 0 && r.attempted > 0, s"${w.name} trace=$trace: $r")
        println(Json.obj("selftest" -> Json.str(w.name), "trace" -> Json.num(if (trace) 1L else 0L),
                         "result" -> r.json))
      }

      // Faults: a hop to a non-neighbour, and a lost walk.
      val w = Bench.workloads.find(_.name == "n2v-flickr-mh").get
      val toy = w.copy(dataset = w.dataset.copy(numNodes = 300, targetUndirectedEdges = 3000),
                       numWalks = 1, walkLen = 10)
      val run = new Runner(spark, toy, seeds, cores)
      val (gr, _) = run.setupAll()
      val p = run.pass(gr, toy.partitions, "selftest")
      val good = Checks.walks(p.walks, gr.bc, toy.model, toy.numWalks, toy.walkLen)
      expect(good.failed == 0, s"clean corpus counted ${good.failed} failed walks")
      val g = gr.g
      val corrupt = p.walks.zipWithIndex().map { case (walk, i) =>
        if (i != 0 || walk.length < 2) walk
        else {
          val u = walk(0)
          val stranger = (0 until g.numNodes).find(v => v != u && !g.hasEdge(u, v)).get
          walk.updated(1, stranger)
        }
      }
      val injected = Checks.walks(corrupt, gr.bc, toy.model, toy.numWalks, toy.walkLen)
      expect(injected.failed == 1, s"non-edge hop counted ${injected.failed} failed walks, want 1")
      val lost = Checks.walks(p.walks.zipWithIndex().filter(_._2 != 5).map(_._1), gr.bc, toy.model,
                              toy.numWalks, toy.walkLen)
      expect(lost.failed == 1, s"lost walk counted ${lost.failed} failed walks, want 1")
      println(Json.obj("selftest" -> Json.str("injected"), "non_edge_failed" -> Json.num(injected.failed),
                       "lost_failed" -> Json.num(lost.failed)))
      p.release()
    } finally spark.stop()
    if (!ok) sys.exit(1)
  }
}
