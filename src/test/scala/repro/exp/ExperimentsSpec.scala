package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.model.{DeepWalk, Edge2Vec, FairWalk, MetaPath2Vec, Node2Vec}
import repro.sampler.{AliasSamplerFactory, DirectSamplerFactory, MemoryModel}

/** Harness plumbing: projections, formatting, and the baseline mapping. */
class ExperimentsSpec extends AnyFunSuite {

  /** The paper-scale OOM pattern alone (no timing runs): per (model,
    * dataset), whether the open-sourced, UniNet (Orig) and UniNet (M-H)
    * cells OOM.
    */
  private def oomPattern: Seq[(String, String, Boolean, Boolean, Boolean)] =
    TableVI.Benchmarks.flatMap { mb =>
      mb.datasets.map { ds =>
        val cfg = repro.graph.GraphGen.datasets(ds)
        val model = mb.model
        val orig = Experiments.origFactory(model)
        (mb.modelName, ds,
         MemoryModel.ooms(cfg, orig, model.isSecondOrder, openSourceImpl = true),
         MemoryModel.ooms(cfg, orig, model.isSecondOrder),
         MemoryModel.ooms(cfg, Experiments.mhFactory, model.isSecondOrder))
      }
    }

  test("origFactory: node2vec gets precompute-all alias, others direct") {
    assert(Experiments.origFactory(new Node2Vec(1, 1)).isInstanceOf[AliasSamplerFactory])
    assert(Experiments.origFactory(new DeepWalk) == DirectSamplerFactory)
    assert(Experiments.origFactory(new MetaPath2Vec(Array(0, 1))) == DirectSamplerFactory)
    assert(Experiments.origFactory(Edge2Vec(1, 1)) == DirectSamplerFactory)
    assert(Experiments.origFactory(new FairWalk(1, 1)) == DirectSamplerFactory)
  }

  test("projection scales by node count and walk workload") {
    val g = TestGraphs.mediumGraph(n = 100)
    val cfg = repro.graph.GraphGen.datasets("BlogCatalog") // paper 10300 nodes
    val p = Experiments.projectPaperSeconds(1.0, cfg, g, linearInDegree = false,
                                            numWalks = 2, walkLen = 20)
    // 10300/100 nodes * (10*80)/(2*20) walk scale = 103 * 20
    assert(math.abs(p - 103.0 * 20) < 1e-6)
  }

  test("projection multiplies in the degree ratio for O(deg) samplers") {
    val g = TestGraphs.mediumGraph(n = 100)
    val cfg = repro.graph.GraphGen.datasets("BlogCatalog")
    val flat = Experiments.projectPaperSeconds(1.0, cfg, g, linearInDegree = false, 2, 20)
    val lin = Experiments.projectPaperSeconds(1.0, cfg, g, linearInDegree = true, 2, 20)
    assert(math.abs(lin / flat - cfg.paperMeanDegree / g.meanDegree) < 1e-9)
  }

  test("fmtProjected crosses to >4h at the paper's cutoff") {
    assert(Experiments.fmtProjected(100.0) == "100s")
    assert(Experiments.fmtProjected(4 * 3600.0 + 1) == ">4h")
  }

  test("renderTable aligns columns") {
    val out = Experiments.renderTable(Seq("a", "bb"), Seq(Seq("xxx", "y"), Seq("1", "2")))
    val lines = out.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.length == 1)
  }

  test("memory-aware budget = graph + one int per state (paper §V-D)") {
    val g = TestGraphs.mediumGraph()
    val b = Experiments.memoryAwareBudget(g, new Node2Vec(1, 1))
    assert(b == g.storageBytes + 4L * g.numDirectedEdges)
  }

  test("Table VI OOM pattern matches the paper's '*' cells") {
    val pattern = oomPattern
    val marks = pattern.map { case (m, d, open, orig, mh) => (m, d) -> ((open, orig, mh)) }.toMap
    assert(marks(("Deepwalk", "Twitter")) == ((false, false, false))) // runs (but >4h in paper)
    assert(marks(("Deepwalk", "Web-UK")) == ((true, false, false)))   // open-source OOM only
    assert(marks(("Node2vec", "Twitter")) == ((true, true, false)))   // alias OOM, M-H fits
    assert(marks(("Node2vec", "Web-UK")) == ((true, true, false)))
    assert(marks(("Node2vec", "YouTube")) == ((false, false, false)))
    assert(marks(("Edge2vec", "AMiner")) == ((false, false, false)))
    for ((m, d, open, orig, mh) <- pattern) {
      val (po, pr, pm) = TableVI.PaperTt((m, d))
      assert((open, orig, mh) == ((po == "*", pr == "*", pm == "*")), s"$m on $d")
    }
  }

  test("Table II configs and paper values are aligned") {
    assert(TableII.Configs.toSet == TableII.Paper.keySet)
  }

  test("Table VII paper cells cover every (dataset, sampler, config)") {
    val budget = 1L << 20
    val expected = for {
      ds <- TableVII.Datasets
      (s, _) <- TableVII.samplerRows(budget)
      pq <- TableVII.Configs
    } yield (ds, s, pq)
    assert(expected.forall(TableVII.Paper.contains))
    assert(TableVII.Paper.size == expected.size)
  }

  test("Table VI paper Tt covers every benchmarked (model, dataset) pair") {
    val pairs = TableVI.Benchmarks.flatMap(mb => mb.datasets.map(d => (mb.modelName, d)))
    assert(pairs.forall(TableVI.PaperTt.contains))
    assert(pairs.size == 25)
  }
}
