package repro.sampler

import java.util.SplittableRandom

import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.model.{DeepWalk, MetaPath2Vec, Node2Vec}

/** The flat alias store every alias user shares: tables of one store draw
  * independently, an empty table draws -1, the entry count is bounded by
  * one JVM array, and each user's reported bytes are what Spark's
  * `SizeEstimator` measures of the arrays it holds.
  */
class AliasStoreSpec extends AnyFunSuite {
  import AliasStoreSpec.measuredPayload

  test("tables of one store draw from their own slices; an empty table draws -1") {
    val ws = Array(Array(1.0, 3.0), Array.empty[Double], Array(0.0, 0.0, 0.0), Array(2.0, 0.0, 2.0))
    val store = AliasStore(ws.map(w => if (w.exists(_ > 0)) w.length else 0), "test tables")
    for (t <- ws.indices if store.size(t) > 0) store.build(t, ws(t))
    assert((0 to ws.length).map(store.offsets(_)) == Seq(0, 2, 2, 2, 5))
    val rng = new SplittableRandom(3)
    assert(store.draw(1, rng) == -1 && store.draw(2, rng) == -1)
    val counts = Array.fill(ws.length)(new Array[Int](3))
    for (_ <- 0 until 40_000; t <- Seq(0, 3)) counts(t)(store.draw(t, rng)) += 1
    assert(math.abs(counts(0)(1) / 40_000.0 - 0.75) < 0.01)
    assert(counts(3)(1) == 0 && math.abs(counts(3)(0) / 40_000.0 - 0.5) < 0.01)
  }

  test("a store larger than one JVM array is refused before it is allocated") {
    val e = intercept[IllegalArgumentException](AliasStore(Array(Int.MaxValue - 8, 1), "node2vec's tables"))
    assert(e.getMessage.contains("node2vec's tables"))
  }

  test("memoryBytes is the bytes SizeEstimator measures in the alias store") {
    val g = TestGraphs.mediumGraph(numTypes = 3)
    val n2v = new Node2Vec(0.5, 2.0)
    val partial = new AliasSamplerFactory(AliasStore.bytes(n2v.numSlots(g), 0L, wide = false) + 20_000L)
    val cases = Seq(
      (new AliasSamplerFactory, new DeepWalk),
      (new AliasSamplerFactory, n2v),
      (new AliasSamplerFactory, new MetaPath2Vec(Array(0, 1, 2))),
      (partial, n2v),
    )
    for ((f, m) <- cases) {
      f.prepare(g, m, parallel = true)
      val s = f.store
      val slack = measuredPayload(s.offsets, s.prob, s.alias.array) - f.memoryBytes(g, m)
      assert(slack >= 0 && slack < 3 * 8, s"${f.name} ${m.name}: ${f.memoryBytes(g, m)} B, slack $slack")
    }
    // The partial budget aliases some nodes, not all, and pays for the offsets.
    assert(partial.memoryBytes(g, n2v) < cases(1)._1.memoryBytes(g, n2v))
    assert(partial.store.prob.nonEmpty && partial.memoryBytes(g, n2v) <= partial.budgetBytes)
  }

  test("the static proposal's bytes are what SizeEstimator measures") {
    val g = TestGraphs.mediumGraph()
    val f = new KnightKingSamplerFactory
    f.prepare(g, new DeepWalk, parallel = true)
    val p = f.proposal
    val slack = measuredPayload(p.tables.offsets, p.tables.prob, p.tables.alias.array, p.weightSums) -
                f.memoryBytes(g, new DeepWalk)
    assert(slack >= 0 && slack < 4 * 8, s"slack $slack")
  }
}

object AliasStoreSpec {
  /** SizeEstimator's bytes of each array less an empty array's header:
    * the entries, each array rounded up to a multiple of 8 bytes.
    */
  def measuredPayload(arrays: AnyRef*): Long = arrays.map { a =>
    val empty = java.lang.reflect.Array.newInstance(a.getClass.getComponentType, 0)
    SizeEstimator.estimate(a) - SizeEstimator.estimate(empty)
  }.sum
}
