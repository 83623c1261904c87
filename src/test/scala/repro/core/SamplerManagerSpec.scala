package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs

/** 2D data layout (§IV-C, Fig. 4): lazy buckets, O(1) lookup semantics. */
class SamplerManagerSpec extends AnyFunSuite {
  private val g = TestGraphs.trianglePendant

  test("buckets allocate lazily and start uninitialized (-1)") {
    val mgr = new SamplerManager(g, v => g.degree(v) + 1)
    assert(mgr.memoryBytes == 0)
    val b = mgr.bucket(0)
    assert(b.length == g.degree(0) + 1)
    assert(b.forall(_ == -1))
    assert(mgr.memoryBytes == 4L * (g.degree(0) + 1))
  }

  test("repeated lookups return the same bucket instance") {
    val mgr = new SamplerManager(g, _ => 3)
    val b1 = mgr.bucket(2)
    b1(1) = 42
    assert(mgr.bucket(2)(1) == 42)
    assert(mgr.bucket(2) eq b1)
    assert(mgr.memoryBytes == 12L) // allocated once
  }

  test("memory grows by bucket size per distinct position") {
    val mgr = new SamplerManager(g, v => g.degree(v))
    (0 until g.numNodes).foreach(mgr.bucket)
    assert(mgr.memoryBytes == 4L * g.numDirectedEdges)
  }

  test("bucket sizes follow the provided layout function") {
    val mgr = new SamplerManager(g, v => 2 * v + 1)
    assert(mgr.bucket(3).length == 7)
  }

  test("reset re-arms every allocated slot and keeps the storage") {
    val layout = (v: Int) => g.degree(v) + 1
    val mgr = new SamplerManager(g, layout)
    val b0 = mgr.bucket(0); val b2 = mgr.bucket(2)
    b0(1) = 7; b2(0) = 9
    val bytes = mgr.memoryBytes
    assert(mgr.reportNewBytes() == bytes)
    assert(mgr.reset(layout))
    assert(mgr.bucket(0) eq b0)
    assert(b0.forall(_ == -1) && b2.forall(_ == -1))
    assert(mgr.memoryBytes == bytes)   // nothing reallocated
    assert(mgr.reportNewBytes() == 0L) // ... so nothing new to report
    mgr.bucket(1)
    assert(mgr.reportNewBytes() == 4L * (g.degree(1) + 1))
    // Allocated buckets of another layout's size cannot be recycled.
    assert(!mgr.reset(_ => 1))
  }
}
