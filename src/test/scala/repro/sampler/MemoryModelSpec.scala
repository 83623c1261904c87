package repro.sampler

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.GraphGen

/** Paper-scale memory accounting: the formulas must reproduce the paper's
  * out-of-memory (`*`) pattern in Tables VI and VII on a 96 GB server.
  */
class MemoryModelSpec extends AnyFunSuite {
  private val twitter = GraphGen.datasets("Twitter")
  private val webuk = GraphGen.datasets("Web-UK")
  private val youtube = GraphGen.datasets("YouTube")
  private val flickr = GraphGen.datasets("Flickr")
  private val aliasPre = new AliasSamplerFactory
  private val mh = new MHSamplerFactory(HighWeightInit())
  private val memoryAware = new AliasSamplerFactory(80L << 20)

  test("Table VII: second-order alias OOMs on both billion-edge networks") {
    assert(MemoryModel.ooms(twitter, aliasPre, secondOrder = true))
    assert(MemoryModel.ooms(webuk, aliasPre, secondOrder = true))
  }

  test("Table VII: rejection and KnightKing run on Twitter but OOM on Web-UK") {
    for (s <- Seq(new KnightKingSamplerFactory(optimized = false), new KnightKingSamplerFactory)) {
      assert(!MemoryModel.ooms(twitter, s, secondOrder = true), s.name)
      assert(MemoryModel.ooms(webuk, s, secondOrder = true), s.name)
    }
  }

  test("Table VII: M-H fits both billion-edge networks") {
    assert(!MemoryModel.ooms(twitter, mh, secondOrder = true))
    assert(!MemoryModel.ooms(webuk, mh, secondOrder = true))
  }

  test("Table VII: memory-aware fits both by construction") {
    assert(!MemoryModel.ooms(twitter, memoryAware, secondOrder = true))
    assert(!MemoryModel.ooms(webuk, memoryAware, secondOrder = true))
  }

  test("Table VI: open-sourced deepwalk runs on Twitter, OOMs on Web-UK") {
    assert(!MemoryModel.ooms(twitter, DirectSamplerFactory, secondOrder = false, openSourceImpl = true))
    assert(MemoryModel.ooms(webuk, DirectSamplerFactory, secondOrder = false, openSourceImpl = true))
  }

  test("Table VI: open-sourced node2vec (alias) OOMs on the billion-edge pair only") {
    assert(MemoryModel.ooms(twitter, aliasPre, secondOrder = true, openSourceImpl = true))
    assert(!MemoryModel.ooms(flickr, aliasPre, secondOrder = true, openSourceImpl = true))
    assert(!MemoryModel.ooms(youtube, aliasPre, secondOrder = true, openSourceImpl = true))
  }

  test("Table VI: UniNet(Orig) node2vec OOMs on Twitter/Web-UK, runs on YouTube") {
    assert(MemoryModel.ooms(twitter, aliasPre, secondOrder = true))
    assert(MemoryModel.ooms(webuk, aliasPre, secondOrder = true))
    assert(!MemoryModel.ooms(youtube, aliasPre, secondOrder = true))
  }

  test("Table VI: M-H deepwalk and node2vec fit everywhere") {
    for (cfg <- GraphGen.datasets.values) {
      assert(!MemoryModel.ooms(cfg, mh, secondOrder = false), cfg.name)
      assert(!MemoryModel.ooms(cfg, mh, secondOrder = true), cfg.name)
    }
  }

  test("graph bytes formula") {
    assert(MemoryModel.graphBytes(10, 100) == 8L * 100 + 4L * 10)
  }
}
