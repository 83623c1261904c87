package repro.sampler

import java.util.SplittableRandom

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers

/** Alias-table construction invariants and draw-distribution correctness. */
class AliasMethodSpec extends AnyFunSuite with PropHelpers {

  /** One table over `weights`, empty when they sum to 0. */
  private def single(weights: Array[Double]): AliasStore = {
    val t = AliasStore(Array(if (weights.exists(_ > 0)) weights.length else 0), "one table")
    if (t.size(0) > 0) t.build(0, weights)
    t
  }

  private def empirical(t: AliasStore, draws: Int, seed: Long = 1): Array[Double] = {
    val rng = new SplittableRandom(seed)
    val c = new Array[Long](t.size(0))
    (0 until draws).foreach(_ => c(t.draw(0, rng)) += 1)
    c.map(_.toDouble / draws)
  }

  test("uniform weights produce a uniform distribution") {
    val t = single(Array.fill(8)(3.0))
    val emp = empirical(t, 200_000)
    emp.foreach(p => assert(math.abs(p - 0.125) < 0.01))
  }

  test("skewed weights reproduce their normalized distribution") {
    val w = Array(1.0, 2.0, 3.0, 4.0, 10.0)
    val t = single(w)
    val emp = empirical(t, 400_000)
    val z = w.sum
    w.indices.foreach(i => assert(math.abs(emp(i) - w(i) / z) < 0.01))
  }

  test("zero-weight entries are never drawn") {
    val t = single(Array(0.0, 5.0, 0.0, 5.0))
    val emp = empirical(t, 100_000)
    assert(emp(0) == 0.0 && emp(2) == 0.0)
    assert(math.abs(emp(1) - 0.5) < 0.01)
  }

  test("single-element distribution always returns 0") {
    val t = single(Array(7.0))
    assert(empirical(t, 1000)(0) == 1.0)
  }

  test("all-zero weights build no table (no permitted edge)") {
    for (w <- Seq(Array(0.0, 0.0), Array.empty[Double])) {
      val t = single(w)
      assert(t.size(0) == 0 && t.prob.isEmpty)
      assert(t.draw(0, new SplittableRandom(1)) == -1)
    }
  }

  test("negative weights are rejected") {
    assertThrows[IllegalArgumentException](single(Array(1.0, -0.1)))
  }

  test("an entry is 6 bytes, or 8 in a table past 65,534") {
    // A float and a char alias per entry, plus one table's two offsets.
    assert(single(Array.fill(100)(1.0)).bytes == 6L * 100 + 4L * 2)
    assert(single(Array.fill(65_534)(1.0)).alias.array.isInstanceOf[Array[Char]])
    val wide = single(Array.fill(65_535)(1.0))
    assert(wide.alias.array.isInstanceOf[Array[Int]] && wide.bytes == 8L * 65_535 + 4L * 2)
    assert(AliasStore.bytes(1, 100, wide = true) == 8L * 100 + 4L * 2)
  }

  test("property: every probability entry is within [0, 1] and aliases are valid") {
    val gen = Gen.nonEmptyListOf(Gen.choose(0.0, 50.0)).suchThat(_.sum > 0)
    forAllSamples(gen, n = 40) { ws =>
      val t = single(ws.toArray)
      assert(t.size(0) == ws.size)
      t.prob.foreach(p => assert(p >= -1e-9 && p <= 1.0 + 1e-9))
      (0 until t.size(0)).foreach(j => assert(t.alias(j) >= 0 && t.alias(j) < t.size(0)))
    }
  }

  test("property: empirical distribution tracks random weight vectors") {
    val gen = Gen.listOfN(6, Gen.choose(0.1, 20.0))
    forAllSamples(gen, n = 8) { ws =>
      val t = single(ws.toArray)
      val emp = empirical(t, 150_000, seed = ws.hashCode())
      val z = ws.sum
      ws.indices.foreach(i => assert(math.abs(emp(i) - ws(i) / z) < 0.02))
    }
  }
}
