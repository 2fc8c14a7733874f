package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  test("rmatEdgesLocal is deterministic in seed") {
    val a = GraphGen.rmatEdgesLocal(8, 500, seed = 1)
    val b = GraphGen.rmatEdgesLocal(8, 500, seed = 1)
    val c = GraphGen.rmatEdgesLocal(8, 500, seed = 2)
    assert(a == b)
    assert(a != c)
  }

  test("rmatEdgesLocal stays within the vertex id range") {
    val edges = GraphGen.rmatEdgesLocal(6, 300, seed = 3)
    assert(edges.forall { case (u, v) => u >= 0 && u < 64 && v >= 0 && v < 64 })
  }

  test("rmat degrees are skewed (power-law-ish)") {
    val edges = GraphGen.rmatEdgesLocal(10, 5000, seed = 4)
    val outDeg = edges.groupBy(_._1).view.mapValues(_.size).values.toSeq
    val max = outDeg.max
    val mean = outDeg.sum.toDouble / outDeg.size
    assert(max > 4 * mean, s"expected heavy tail, max=$max mean=$mean")
  }

  test("undirectLocal canonicalizes, dedupes and drops self-loops") {
    val edges = Seq((3L, 1L), (1L, 3L), (2L, 2L), (1L, 2L))
    assert(GraphGen.undirectLocal(edges) == Seq((1L, 2L), (1L, 3L)))
  }

  test("webGraphLocal compacts ids densely") {
    val (directed, g) = GraphGen.webGraphLocal(8, 600, seed = 7)
    val ids = directed.flatMap { case (u, v) => Seq(u, v) }.distinct
    assert(ids.min == 0 && ids.max == ids.size - 1)
    assert(g.n == ids.size)
  }

  test("webGraphLocal undirected graph has no self-loops or duplicates") {
    val (_, g) = GraphGen.webGraphLocal(8, 600, seed = 8)
    (0 until g.n).foreach { u =>
      assert(!g.adj(u).contains(u))
      assert(g.adj(u).toSeq == g.adj(u).toSeq.distinct.sorted)
    }
  }

  test("webGraphLocal is deterministic") {
    val (_, a) = GraphGen.webGraphLocal(8, 500, seed = 9)
    val (_, b) = GraphGen.webGraphLocal(8, 500, seed = 9)
    assert(a.edges == b.edges)
  }
}
