package repro.bench

import repro.SparkSpec
import repro.exp.TableVI

/** Table VI benchmark: end-to-end cost of the five NRL models under the
  * three implementations. Asserts the paper's qualitative claims:
  * UniNet(M-H) wins end-to-end, the OOM pattern matches, and the
  * projected baselines cross the paper's 4-hour cutoff where the paper
  * says they do.
  */
class TableVIBench extends SparkSpec {

  private lazy val rows = TableVI.run(spark)
  private def row(model: String, ds: String) =
    rows.find(r => r.modelName == model && r.dataset == ds).get

  test("render Table VI (paper vs measured)") {
    println(TableVI.render(rows))
    assert(rows.size == 25)
  }

  test("OOM cells match the paper's '*' pattern") {
    for (ds <- Seq("Twitter", "Web-UK")) {
      val r = row("Node2vec", ds)
      assert(r.open.result.isEmpty && r.orig.result.isEmpty, s"node2vec $ds should OOM")
      assert(r.mh.result.nonEmpty, s"M-H must handle $ds")
    }
    assert(row("Deepwalk", "Web-UK").open.result.isEmpty)   // open-source OOM
    assert(row("Deepwalk", "Web-UK").orig.result.nonEmpty)  // UniNet(Orig) runs
    assert(row("Deepwalk", "Twitter").open.result.nonEmpty) // paper: runs (>4h)
  }

  test("M-H handles every benchmarked combination") {
    rows.foreach(r => assert(r.mh.result.nonEmpty, s"${r.modelName}/${r.dataset}"))
  }

  test("M-H sampling phases beat the single-threaded baselines in aggregate") {
    // Tt comparisons on the tiniest graphs reduce to word2vec noise (both
    // sides share the learner; the paper's Tl gap is a Python-vs-C++ constant we
    // do not model — DESIGN.md §3). The engine claim is about Ti+Tw:
    // aggregate it over every combination the baseline can run.
    val comparable = rows.filter(_.open.result.nonEmpty)
    assert(comparable.size >= 20)
    def phase(r: repro.core.RunResult) = r.times.tInit + r.times.tWalk
    val openSum = comparable.map(r => phase(r.open.result.get)).sum
    val mhSum = comparable.map(r => phase(r.mh.result.get)).sum
    assert(mhSum * 1.5 < openSum, s"mh=$mhSum open=$openSum")
    // Per-row, M-H must never lose badly (2x slack for sub-second noise).
    comparable.foreach { r =>
      assert(phase(r.mh.result.get) < 2 * phase(r.open.result.get) + 0.5,
             s"${r.modelName}/${r.dataset}")
    }
  }

  test("M-H does O(1) sampling work per step where the original samplers do O(deg)") {
    // At -lite scale the direct sampler's walk wall time hides under the
    // fixed Spark job cost, so compare the measured per-step sampling work
    // (weight evaluations / proposals per step), which is scale-free: the
    // direct sampler pays ~mean-degree per step, M-H pays 1 candidate.
    for ((m, ds) <- Seq(("Deepwalk", "Flickr"), ("Deepwalk", "Reddit"),
                        ("Edge2vec", "AMiner"), ("Fairwalk", "Reddit"),
                        ("Metapath2vec", "AMiner"))) {
      val r = row(m, ds)
      val orig = r.orig.result.get.trialsPerStep
      val mh = r.mh.result.get.trialsPerStep
      assert(mh <= 1.001, s"$m/$ds: M-H trials/step $mh")
      assert(orig > 3 * mh, s"$m/$ds: orig $orig vs mh $mh")
    }
  }

  test("node2vec: alias precompute dominates Orig's init cost (paper's Ti blow-up)") {
    for (ds <- Seq("Reddit", "Flickr")) {
      val r = row("Node2vec", ds)
      val orig = r.orig.result.get.times
      val mh = r.mh.result.get.times
      assert(orig.tInit > 5 * mh.tInit, s"$ds: orig.Ti=${orig.tInit} mh.Ti=${mh.tInit}")
    }
  }

  test("projected baselines cross the paper's 4-hour cutoff where the paper says >4h") {
    // Paper >4h cells that we run at -lite scale: check the projections.
    for ((m, ds) <- Seq(("Deepwalk", "Twitter"), ("Edge2vec", "AMiner"))) {
      val r = row(m, ds)
      r.open.result.foreach { _ =>
        assert(r.open.projectedTt.get > 4 * 3600, s"$m/$ds projected ${r.open.projectedTt}")
      }
    }
    // And M-H's projected *walk phase* stays far below the baseline's on
    // Twitter (the open run skips learning there, so Tt is incomparable;
    // the paper's M-H Tw on Twitter is 983s vs the baseline's >4h).
    val dw = row("Deepwalk", "Twitter")
    assert(dw.mh.projectedTw.get < dw.open.projectedTw.get)
    assert(dw.open.projectedTw.get > 4 * 3600)
  }

  test("learning cost is shared: Orig and M-H report the same Tl") {
    rows.filter(r => r.orig.result.nonEmpty && r.mh.result.nonEmpty).foreach { r =>
      assert(r.orig.result.get.times.tLearn == r.mh.result.get.times.tLearn)
    }
  }
}
