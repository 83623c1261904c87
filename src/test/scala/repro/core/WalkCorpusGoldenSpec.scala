package repro.core

import scala.util.hashing.MurmurHash3

import repro.{SparkSpec, TestGraphs}
import repro.model.{DeepWalk, Edge2Vec, FairWalk, MetaPath2Vec, Node2Vec}
import repro.sampler._

/** Fixed-seed walk jobs of every model × sampler pair, pinned to recorded
  * constants: a change that means to keep behaviour must leave each
  * corpus and its step, trial, accept and init counters exactly as they
  * are. `initNanos` and `localBytes` are left out; they depend on timing
  * and on how the M-H factory holds its LAST_x array.
  *
  * Each job walks 3 × 20 steps from every node of a 600-node graph with
  * three node types at seed 7. The exact samplers run over 4 partitions.
  * The M-H samplers run as one partition: their chains are the state
  * they carry from step to step, and a single task walks them in one
  * fixed order, so the corpus pins Alg. 1 itself and not how concurrent
  * tasks interleave on shared chains. When a change alters rows on
  * purpose, the failure message prints the new literal of every changed
  * row of the model.
  */
class WalkCorpusGoldenSpec extends SparkSpec {
  import WalkCorpusGoldenSpec._

  private lazy val g = TestGraphs.mediumGraph(600, 4, 11, numTypes = 3)
  private lazy val bcG = spark.sparkContext.broadcast(g)

  private val models = Seq(
    "deepwalk" -> new DeepWalk,
    "node2vec(0.25,4)" -> new Node2Vec(0.25, 4.0),
    "node2vec(2,0.5)" -> new Node2Vec(2.0, 0.5),
    "edge2vec(0.25,0.25)" -> Edge2Vec(0.25, 0.25),
    "fairwalk(0.5,2)" -> new FairWalk(0.5, 2.0),
    "metapath2vec(0-0-1)" -> new MetaPath2Vec(Array(0, 0, 1)),
    "metapath2vec(0-1-2)" -> new MetaPath2Vec(Array(0, 1, 2)),
  )

  /** Partitions of a pair's walk job: one for M-H, four otherwise. */
  private def partitions(factory: SamplerFactory): Int = factory match {
    case _: MHSamplerFactory => 1
    case _                   => 4
  }

  private val samplers: Seq[(String, () => SamplerFactory)] = Seq(
    "alias" -> (() => new AliasSamplerFactory),
    "direct" -> (() => DirectSamplerFactory),
    "knightking" -> (() => new KnightKingSamplerFactory()),
    "rejection" -> (() => new KnightKingSamplerFactory(optimized = false)),
    "memory-aware(200kB)" -> (() => new AliasSamplerFactory(200_000L)),
    "mh(Rand)" -> (() => new MHSamplerFactory(RandomInit)),
    "mh(Weight)" -> (() => new MHSamplerFactory(HighWeightInit())),
    "mh(Burn20)" -> (() => new MHSamplerFactory(BurnInInit(20))),
  )

  /** One walk job per pair, run once and shared by every test. */
  private lazy val results: Map[(String, String), Row] = (for {
    (mName, model) <- models
    (sName, newFactory) <- samplers
  } yield {
    val factory = newFactory()
    factory.prepare(g, model, parallel = true)
    val bcF = spark.sparkContext.broadcast(factory)
    val (rdd, acc) = UniNet.generateWalksPrepared(spark, bcG, model, bcF, 3, 20, partitions(factory), 7L)
    val walks = rdd.collect()
    bcF.destroy()
    (mName, sName) -> Row(
      MurmurHash3.orderedHash(walks.iterator.map(w => MurmurHash3.arrayHash(w))),
      acc.steps.value, acc.trials.value, acc.accepts.value, acc.initCount.value)
  }).toMap

  for ((mName, _) <- models) {
    test(s"$mName: every sampler's corpus and counters match the recorded constants") {
      val changed = for {
        (sName, _) <- samplers
        got = results((mName, sName))
        if !golden.get((mName, sName)).contains(got)
      } yield got.literal(mName, sName)
      if (changed.nonEmpty) fail(changed.mkString("new rows:\n", "\n", ""))
    }
  }
}

object WalkCorpusGoldenSpec {
  final case class Row(hash: Int, steps: Long, trials: Long, accepts: Long, initCount: Long) {
    def literal(m: String, s: String): String =
      f"""("$m", "$s") -> Row(0x$hash%08x, $steps, $trials, $accepts, $initCount),"""
  }

  private val golden: Map[(String, String), Row] = Map(
    ("deepwalk", "alias") -> Row(0x511288b2, 36000, 36000, 0, 0),
    ("deepwalk", "direct") -> Row(0x9f146131, 36000, 437788, 0, 0),
    ("deepwalk", "knightking") -> Row(0x9f621288, 36000, 36000, 36000, 0),
    ("deepwalk", "rejection") -> Row(0x9f621288, 36000, 36000, 36000, 0),
    ("deepwalk", "memory-aware(200kB)") -> Row(0x511288b2, 36000, 36000, 0, 0),
    ("deepwalk", "mh(Rand)") -> Row(0x911c53c0, 36000, 36000, 30423, 600),
    ("deepwalk", "mh(Weight)") -> Row(0x6af72cf8, 36000, 36000, 30229, 600),
    ("deepwalk", "mh(Burn20)") -> Row(0xc744c06d, 36000, 36000, 30567, 600),
    ("node2vec(0.25,4)", "alias") -> Row(0x5d3af318, 36000, 36000, 0, 0),
    ("node2vec(0.25,4)", "direct") -> Row(0x6f892e29, 36000, 431729, 0, 0),
    ("node2vec(0.25,4)", "knightking") -> Row(0x63c10eb7, 36000, 77127, 36000, 0),
    ("node2vec(0.25,4)", "rejection") -> Row(0x2a9f3c7f, 36000, 223898, 36000, 0),
    ("node2vec(0.25,4)", "memory-aware(200kB)") -> Row(0xd30473e3, 36000, 282648, 0, 0),
    ("node2vec(0.25,4)", "mh(Rand)") -> Row(0xc13d58bb, 36000, 36000, 20521, 6192),
    ("node2vec(0.25,4)", "mh(Weight)") -> Row(0xc6be0cde, 36000, 36000, 8812, 5141),
    ("node2vec(0.25,4)", "mh(Burn20)") -> Row(0x84924a16, 36000, 36000, 12925, 5757),
    ("node2vec(2,0.5)", "alias") -> Row(0xe81eca62, 36000, 36000, 0, 0),
    ("node2vec(2,0.5)", "direct") -> Row(0x271835cb, 36000, 437189, 0, 0),
    ("node2vec(2,0.5)", "knightking") -> Row(0x815d6d61, 36000, 41481, 36000, 0),
    ("node2vec(2,0.5)", "rejection") -> Row(0x815d6d61, 36000, 41481, 36000, 0),
    ("node2vec(2,0.5)", "memory-aware(200kB)") -> Row(0xa3e99c9a, 36000, 281862, 0, 0),
    ("node2vec(2,0.5)", "mh(Rand)") -> Row(0x9f38f571, 36000, 36000, 28952, 6442),
    ("node2vec(2,0.5)", "mh(Weight)") -> Row(0x0e5a25f2, 36000, 36000, 27304, 6377),
    ("node2vec(2,0.5)", "mh(Burn20)") -> Row(0x136144ad, 36000, 36000, 28627, 6428),
    ("edge2vec(0.25,0.25)", "alias") -> Row(0x4103613c, 36000, 36000, 0, 0),
    ("edge2vec(0.25,0.25)", "direct") -> Row(0x1a94caae, 36000, 433348, 0, 0),
    ("edge2vec(0.25,0.25)", "knightking") -> Row(0x3dbc7d6c, 36000, 64342, 36000, 0),
    ("edge2vec(0.25,0.25)", "rejection") -> Row(0x3dbc7d6c, 36000, 64342, 36000, 0),
    ("edge2vec(0.25,0.25)", "memory-aware(200kB)") -> Row(0xdb0b1b9c, 36000, 282803, 0, 0),
    ("edge2vec(0.25,0.25)", "mh(Rand)") -> Row(0xdce477b1, 36000, 36000, 27836, 6374),
    ("edge2vec(0.25,0.25)", "mh(Weight)") -> Row(0x9430089c, 36000, 36000, 25062, 6235),
    ("edge2vec(0.25,0.25)", "mh(Burn20)") -> Row(0x4d1e5067, 36000, 36000, 26877, 6358),
    ("fairwalk(0.5,2)", "alias") -> Row(0x0589863c, 36000, 36000, 0, 0),
    ("fairwalk(0.5,2)", "direct") -> Row(0x970fe758, 36000, 431818, 0, 0),
    ("fairwalk(0.5,2)", "knightking") -> Row(0xf80f38f6, 36000, 456824, 35992, 0),
    ("fairwalk(0.5,2)", "rejection") -> Row(0xf80f38f6, 36000, 456824, 35992, 0),
    ("fairwalk(0.5,2)", "memory-aware(200kB)") -> Row(0x5faff5e0, 36000, 281695, 0, 0),
    ("fairwalk(0.5,2)", "mh(Rand)") -> Row(0x27f3a50a, 36000, 36000, 24607, 6317),
    ("fairwalk(0.5,2)", "mh(Weight)") -> Row(0xbc481cec, 36000, 36000, 17940, 5914),
    ("fairwalk(0.5,2)", "mh(Burn20)") -> Row(0xb5f65f2e, 36000, 36000, 22360, 6186),
    ("metapath2vec(0-0-1)", "alias") -> Row(0xc58fba4c, 19147, 19147, 0, 0),
    ("metapath2vec(0-0-1)", "direct") -> Row(0x88d69b95, 19149, 241723, 0, 0),
    ("metapath2vec(0-0-1)", "knightking") -> Row(0xae7b2393, 19354, 167373, 18289, 0),
    ("metapath2vec(0-0-1)", "rejection") -> Row(0xa2561072, 19185, 168364, 18117, 0),
    ("metapath2vec(0-0-1)", "memory-aware(200kB)") -> Row(0xc58fba4c, 19147, 19147, 0, 0),
    ("metapath2vec(0-0-1)", "mh(Rand)") -> Row(0xe3fa3b93, 19303, 18219, 5634, 775),
    ("metapath2vec(0-0-1)", "mh(Weight)") -> Row(0x524cd2c0, 19480, 18427, 5717, 771),
    ("metapath2vec(0-0-1)", "mh(Burn20)") -> Row(0x3af83812, 19555, 18521, 5648, 771),
    ("metapath2vec(0-1-2)", "alias") -> Row(0xef91fa2a, 36000, 36000, 0, 0),
    ("metapath2vec(0-1-2)", "direct") -> Row(0x83d0226a, 36000, 415376, 0, 0),
    ("metapath2vec(0-1-2)", "knightking") -> Row(0x60fa6503, 36000, 121785, 35999, 0),
    ("metapath2vec(0-1-2)", "rejection") -> Row(0x430c2408, 36000, 122303, 35998, 0),
    ("metapath2vec(0-1-2)", "memory-aware(200kB)") -> Row(0xef91fa2a, 36000, 36000, 0, 0),
    ("metapath2vec(0-1-2)", "mh(Rand)") -> Row(0x2c6ae221, 36000, 36000, 11181, 600),
    ("metapath2vec(0-1-2)", "mh(Weight)") -> Row(0x7b12b797, 36000, 36000, 11092, 600),
    ("metapath2vec(0-1-2)", "mh(Burn20)") -> Row(0x34383573, 36000, 36000, 11054, 600),
  )
}
