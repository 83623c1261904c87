package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.{PropHelpers, TestGraphs}

/** CSR storage invariants (paper §IV-C network storage). */
class CSRGraphSpec extends AnyFunSuite with PropHelpers {

  private val g = TestGraphs.trianglePendant

  test("node and edge counts") {
    assert(g.numNodes == 4)
    assert(g.numDirectedEdges == 8)
    assert(g.numUndirectedEdges == 4)
  }

  test("degrees match the undirected construction") {
    assert(g.degree(0) == 3)
    assert(g.degree(1) == 2)
    assert(g.degree(2) == 2)
    assert(g.degree(3) == 1)
  }

  test("offsets are a prefix sum of degrees") {
    assert(g.offsets.toSeq == Seq(0, 3, 5, 7, 8))
  }

  test("adjacency slices are sorted by destination") {
    for (v <- 0 until g.numNodes) {
      val slice = (g.offset(v) until g.offset(v) + g.degree(v)).map(g.dst)
      assert(slice == slice.sorted, s"node $v")
    }
  }

  test("weights stay aligned with their edges after sorting") {
    // 0's neighbors sorted: 1 (w=1.0), 2 (w=2.0), 3 (w=0.5)
    val lo = g.offset(0)
    assert((g.dst(lo), g.weight(lo)) == ((1, 1.0f)))
    assert((g.dst(lo + 1), g.weight(lo + 1)) == ((2, 2.0f)))
    assert((g.dst(lo + 2), g.weight(lo + 2)) == ((3, 0.5f)))
  }

  test("symmetrization: both directions exist with the same weight") {
    for (v <- 0 until g.numNodes; j <- 0 until g.degree(v)) {
      val e = g.offset(v) + j
      val u = g.dst(e)
      val back = g.neighborIndexOf(u, v)
      assert(back >= 0, s"missing reverse edge ($u,$v)")
      assert(g.weight(g.offset(u) + back) == g.weight(e))
    }
  }

  test("neighborIndexOf finds existing neighbors") {
    assert(g.neighborIndexOf(0, 2) == 1)
    assert(g.neighborIndexOf(3, 0) == 0)
  }

  test("neighborIndexOf returns -1 for non-edges") {
    assert(g.neighborIndexOf(1, 3) == -1)
    assert(g.neighborIndexOf(3, 3) == -1)
  }

  test("neighborIndexOf: empty slice, degree 1, both ends, out of range, duplicates") {
    // (0,4) three times, once reversed: N(0) = {2, 4, 7}, N(1) = {5}, N(3) = {}.
    val d = CSRGraph.fromUndirectedEdges(8, Array(0, 0, 0, 4, 0, 1), Array(4, 7, 2, 0, 4, 5),
                                         Array.fill(6)(1.0f))
    assert(d.neighborIndexOf(3, 0) == -1) // empty slice
    assert(d.neighborIndexOf(1, 5) == 0) // degree 1
    assert(d.neighborIndexOf(1, 4) == -1)
    assert(d.neighborIndexOf(1, 6) == -1)
    assert(d.neighborIndexOf(0, 2) == 0) // first entry
    assert(d.neighborIndexOf(0, 7) == 2) // last entry
    assert(d.neighborIndexOf(0, 1) == -1) // below the slice's minimum
    assert(d.neighborIndexOf(0, Int.MinValue) == -1)
    assert(d.neighborIndexOf(0, 8) == -1) // above its maximum
    assert(d.neighborIndexOf(0, Int.MaxValue) == -1)
    assert(d.neighborIndexOf(0, 3) == -1) // a gap inside the slice
    assert(d.neighborIndexOf(0, 4) == 1) // the one entry of a repeated pair
  }

  /** Random undirected edge lists with repeats, reversed repeats and
    * self-loops, weights in 1..9.
    */
  private val repeatedListGen = for {
    n <- Gen.choose(1, 25)
    m <- Gen.choose(0, 120)
    es <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1), Gen.choose(1, 9)))
  } yield (n, es)

  private def buildList(n: Int, es: List[(Int, Int, Int)]): CSRGraph =
    CSRGraph.fromUndirectedEdges(n, es.map(_._1).toArray, es.map(_._2).toArray, es.map(_._3.toFloat).toArray)

  private def slice(g: CSRGraph, v: Int): IndexedSeq[Int] =
    (0 until g.degree(v)).map(j => g.dst(g.offset(v) + j))

  test("property: neighborIndexOf agrees with a linear scan (random multigraphs)") {
    forAllSamples(repeatedListGen, n = 200) { case (n, es) =>
      val g = buildList(n, es)
      for (v <- 0 until n; u <- -1 to n) {
        val i = g.neighborIndexOf(v, u)
        assert(i == slice(g, v).indexOf(u), s"v=$v u=$u N(v)=${slice(g, v)}")
        assert(g.hasEdge(v, u) == (i >= 0))
      }
    }
  }

  test("property: slices strictly increase and every entry has its reverse with the same weight") {
    forAllSamples(repeatedListGen, n = 200) { case (n, es) =>
      val g = buildList(n, es)
      for (v <- 0 until n) {
        val nv = slice(g, v)
        assert(nv.zip(nv.drop(1)).forall { case (a, b) => a < b }, s"N($v) = $nv")
        for (j <- 0 until g.degree(v)) {
          val e = g.offset(v) + j
          val back = g.neighborIndexOf(g.dst(e), v)
          assert(back >= 0, s"missing reverse of ($v,${g.dst(e)})")
          assert(g.weight(g.offset(g.dst(e)) + back) == g.weight(e))
        }
      }
    }
  }

  test("hasEdge mirrors neighborIndexOf") {
    assert(g.hasEdge(0, 3))
    assert(!g.hasEdge(2, 3))
  }

  test("homogeneous graph reports a single type everywhere") {
    assert(!g.isHeterogeneous)
    assert(g.nodeType(2) == 0)
    assert(g.neighborTypeCount(0, 0) == 3)
    assert(g.neighborTypeCount(0, 1) == 0)
  }

  test("heterogeneous type counts per neighborhood") {
    val t = TestGraphs.typedGraph
    assert(t.isHeterogeneous)
    // N(0) = {1,2,3,4,5} with types {1,2,0,1,2}
    assert(t.neighborTypeCount(0, 0) == 1)
    assert(t.neighborTypeCount(0, 1) == 2)
    assert(t.neighborTypeCount(0, 2) == 2)
  }

  test("edgeType encodes the ordered node-type pair") {
    val t = TestGraphs.typedGraph
    val e = t.offset(0) + t.neighborIndexOf(0, 5) // 0 (type 0) -> 5 (type 2)
    assert(t.edgeType(0, e) == 0 * 3 + 2)
  }

  test("isolated nodes have zero degree and are allowed") {
    val iso = CSRGraph.fromUndirectedEdges(3, Array(0), Array(1), Array(1.0f))
    assert(iso.degree(2) == 0)
    assert(iso.numNodes == 3)
  }

  test("meanDegree and maxDegree") {
    assert(math.abs(g.meanDegree - 2.0) < 1e-9)
    assert((0 until g.numNodes).map(g.degree).max == 3)
  }

  test("storageBytes counts offsets, neighbors, weights") {
    assert(g.storageBytes == 4L * 5 + 4L * 8 + 4L * 8)
  }

  test("fromUndirectedEdges rejects misaligned arrays and node ids out of range") {
    assertThrows[IllegalArgumentException] {
      CSRGraph.fromUndirectedEdges(3, Array(0), Array(1, 2), Array(1f, 1f, 1f))
    }
    assertThrows[IllegalArgumentException] {
      CSRGraph.fromUndirectedEdges(3, Array(0), Array(1), Array(1f, 1f))
    }
    assertThrows[IllegalArgumentException] {
      CSRGraph.fromUndirectedEdges(3, Array(0, 1), Array(1, 3), Array(1f, 1f))
    }
    assertThrows[IllegalArgumentException] {
      CSRGraph.fromUndirectedEdges(3, Array(-1), Array(1), Array(1f))
    }
  }

  test("nodeTypes must give every node a type") {
    assertThrows[IllegalArgumentException] {
      CSRGraph.fromUndirectedEdges(3, Array(0), Array(1), Array(1f), Array[Byte](0, 1), 2)
    }
    assertThrows[IllegalArgumentException] {
      new CSRGraph(3, Array(0, 1, 2, 2), Array(1, 0), Array(1f, 1f), Array[Byte](0, 1), 2)
    }
  }

  test("repeated undirected pairs merge into one edge per slice, keeping the lowest weight") {
    // (0,1) three times, once reversed; (1,2) twice; (0,2) once.
    val m = CSRGraph.fromUndirectedEdges(3, Array(0, 1, 0, 1, 2, 0), Array(1, 0, 1, 2, 1, 2),
                                         Array(2.0f, 0.5f, 1.5f, 3.0f, 0.75f, 4.0f))
    assert(m.offsets.toSeq == Seq(0, 2, 4, 6))
    assert(m.neighbors.toSeq == Seq(1, 2, 0, 2, 0, 1))
    assert(m.weights.toSeq == Seq(0.5f, 4.0f, 0.5f, 0.75f, 4.0f, 0.75f))
    assert(m.numUndirectedEdges == 3)
  }

  test("property: repeated pairs build the same CSR as their distinct pairs") {
    val gen = for {
      n <- Gen.choose(2, 20)
      m <- Gen.choose(0, 80)
      es <- Gen.listOfN(m, for {
        u <- Gen.choose(0, n - 1); v <- Gen.choose(0, n - 1) if u != v
        w <- Gen.choose(1, 9)
      } yield (u, v, w.toFloat))
    } yield (n, es)
    forAllSamples(gen, n = 200) { case (n, es) =>
      def build(t: Seq[(Int, Int, Float)]) =
        CSRGraph.fromUndirectedEdges(n, t.map(_._1).toArray, t.map(_._2).toArray, t.map(_._3).toArray)
      // One row per unordered pair, with the lowest weight among its copies.
      val distinct = es.groupBy(t => (math.min(t._1, t._2), math.max(t._1, t._2))).toSeq
        .map { case ((u, v), copies) => (u, v, copies.map(_._3).min) }
      val (a, b) = (build(es), build(distinct))
      assert(a.offsets.toSeq == b.offsets.toSeq)
      assert(a.neighbors.toSeq == b.neighbors.toSeq)
      assert(a.weights.toSeq == b.weights.toSeq)
      assert(a.numUndirectedEdges == distinct.size)
    }
  }

  test("property: CSR preserves every input edge (random edge lists)") {
    val edgeGen = for {
      n <- Gen.choose(2, 30)
      m <- Gen.choose(1, 80)
      es <- Gen.listOfN(m, for {
        u <- Gen.choose(0, n - 1); v <- Gen.choose(0, n - 1) if u != v
        w <- Gen.choose(1, 100)
      } yield (math.min(u, v), math.max(u, v), w.toDouble))
    } yield (n, es.distinctBy(t => (t._1, t._2)))
    forAllSamples(edgeGen) { case (n, es) =>
      val g = TestGraphs.fromTriples(n, es)
      assert(g.numDirectedEdges == 2 * es.size)
      es.foreach { case (u, v, w) =>
        val i = g.neighborIndexOf(u, v)
        assert(i >= 0)
        assert(g.weight(g.offset(u) + i) == w.toFloat)
        assert(g.hasEdge(v, u))
      }
      // Degrees sum to directed edge count.
      assert((0 until n).map(g.degree).sum == g.numDirectedEdges)
    }
  }
}
