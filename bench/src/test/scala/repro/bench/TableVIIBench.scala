package repro.bench

import repro.SparkSpec
import repro.exp.TableVII

/** Table VII benchmark: node2vec walk generation on the billion-edge
  * stand-ins across all seven sampler rows. Asserts the paper's claims:
  * the OOM pattern, M-H's parameter stability vs the rejection family's
  * sensitivity, and burn-in's initialization overhead.
  *
  * Wall-time assertions are kept for the large, reliable gaps (burn-in
  * vs random, memory-aware vs M-H). Parameter-sensitivity claims are
  * asserted on the measured sampling work per step (proposals per
  * emitted edge): at -lite scale the per-cell wall times are dominated
  * by the fixed proposal-build cost, while trials/step is exactly the
  * acceptance-driven quantity the paper's second-scale differences are
  * made of.
  */
class TableVIIBench extends SparkSpec {

  private lazy val rows = TableVII.run(spark)
  private def row(ds: String, s: String) =
    rows.find(r => r.dataset == ds && r.sampler == s).get
  private def times(ds: String, s: String): Seq[Double] =
    row(ds, s).cells.flatten.map(_.timeSec)
  private def work(ds: String, s: String): Map[(Double, Double), Double] =
    TableVII.Configs.zip(row(ds, s).cells.flatten.map(_.trialsPerStep)).toMap

  test("render Table VII (paper vs measured)") {
    println(TableVII.render(rows))
    assert(rows.size == 14)
  }

  test("alias OOMs everywhere; rejection/KnightKing OOM on Web-UK only") {
    for (ds <- TableVII.Datasets) assert(row(ds, "Alias").cells.forall(_.isEmpty), ds)
    for (s <- Seq("Rejection", "KnightKing")) {
      assert(row("Twitter", s).cells.forall(_.nonEmpty), s)
      assert(row("Web-UK", s).cells.forall(_.isEmpty), s)
    }
  }

  test("memory-aware and all M-H variants handle both networks") {
    for (ds <- TableVII.Datasets;
         s <- Seq("Memory-Aware", "UniNet(Rand)", "UniNet(Burn)", "UniNet(Weight)")) {
      assert(row(ds, s).cells.forall(_.nonEmpty), s"$s on $ds")
    }
  }

  test("M-H's sampling work is flat across (p,q); rejection's varies (§V-E)") {
    val mh = work("Twitter", "UniNet(Rand)")
    mh.values.foreach(w => assert(math.abs(w - 1.0) < 0.01, s"M-H work $mh"))
    val rej = work("Twitter", "Rejection")
    assert(rej.values.max / rej.values.min > 2.0, s"rejection work $rej")
  }

  test("M-H wall time is stable across (p,q)") {
    val ts = times("Twitter", "UniNet(Rand)")
    assert(ts.max / ts.min < 1.8, s"spread ${ts.max / ts.min} in $ts")
  }

  test("rejection degrades hardest at (0.25,1), its worst acceptance (Table II)") {
    val rej = work("Twitter", "Rejection")
    assert(rej((0.25, 1.0)) > rej((1.0, 1.0)) * 2, s"$rej")
    assert(rej((1.0, 4.0)) > rej((1.0, 1.0)) * 2, s"$rej")
    assert(math.abs(rej((1.0, 1.0)) - 1.0) < 0.05, s"$rej") // perfect acceptance
  }

  test("memory-aware is slower than UniNet(Rand) on Web-UK (paper shape)") {
    val ma = times("Web-UK", "Memory-Aware").sum
    val mh = times("Web-UK", "UniNet(Rand)").sum
    assert(ma > mh, s"memory-aware $ma vs M-H $mh")
  }

  test("burn-in initialization costs more than random initialization") {
    for (ds <- TableVII.Datasets) {
      val burn = times(ds, "UniNet(Burn)").sum
      val rand = times(ds, "UniNet(Rand)").sum
      assert(burn > rand, s"$ds: burn=$burn rand=$rand")
    }
  }

  test("KnightKing's folding tames the p-outlier but not the q-outliers") {
    val kk = work("Twitter", "KnightKing")
    val rej = work("Twitter", "Rejection")
    // (0.25,1): the single 1/p outlier is folded out of the envelope, so
    // KnightKing needs far fewer proposals than plain rejection there...
    assert(kk((0.25, 1.0)) < rej((0.25, 1.0)) / 2, s"kk=$kk rej=$rej")
    // ...but (1,4)'s many q-outliers cannot be folded: no improvement.
    assert(kk((1.0, 4.0)) > kk((1.0, 1.0)) * 2, s"$kk")
    assert(kk((0.25, 1.0)) < kk((1.0, 4.0)), s"$kk")
  }
}
