package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rng

class LocalGraphSpec extends AnyFunSuite {

  private val triangle = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 0)))

  test("adjacency is symmetric and sorted") {
    assert(triangle.adj(0).toSeq == Seq(1, 2))
    assert(triangle.adj(1).toSeq == Seq(0, 2))
    assert(triangle.adj(2).toSeq == Seq(0, 1))
    assert(triangle.adj(3).isEmpty)
  }

  test("self-loops are dropped") {
    val g = LocalGraph.fromEdges(3, Seq((0, 0), (0, 1)))
    assert(g.numEdges == 1)
    assert(g.adj(0).toSeq == Seq(1))
  }

  test("duplicate edges are deduplicated") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 0), (0, 1)))
    assert(g.numEdges == 1)
  }

  test("numEdges counts undirected edges") {
    assert(triangle.numEdges == 3)
  }

  test("edges returns canonical sorted pairs") {
    assert(triangle.edges == Seq((0, 1), (0, 2), (1, 2)))
  }

  test("hasEdge is consistent with adjacency") {
    assert(triangle.hasEdge(0, 1) && triangle.hasEdge(1, 0))
    assert(!triangle.hasEdge(0, 3) && !triangle.hasEdge(0, 0))
  }

  test("degree") {
    assert(triangle.degree(0) == 2 && triangle.degree(3) == 0)
  }

  test("out-of-range edges are rejected") {
    intercept[IllegalArgumentException](LocalGraph.fromEdges(2, Seq((0, 5))))
  }

  test("edited: deletion removes both directions") {
    val g = triangle.edited(Nil, Seq((1, 0)))
    assert(!g.hasEdge(0, 1) && !g.hasEdge(1, 0))
    assert(g.numEdges == 2)
  }

  test("edited: insertion adds both directions") {
    val g = triangle.edited(Seq((0, 3)), Nil)
    assert(g.hasEdge(0, 3) && g.hasEdge(3, 0))
    assert(g.adj(0).toSeq == Seq(1, 2, 3))
  }

  test("edited: self-loop insertions are ignored") {
    val g = triangle.edited(Seq((2, 2)), Nil)
    assert(g.numEdges == 3)
  }

  test("edited: inserting an existing edge is a no-op") {
    val g = triangle.edited(Seq((0, 1)), Nil)
    assert(g.numEdges == 3 && g.adj(0).toSeq == Seq(1, 2))
  }

  test("edited keeps neighbor arrays sorted") {
    val g = LocalGraph.fromEdges(5, Seq((1, 4))).edited(Seq((1, 0), (1, 2)), Nil)
    assert(g.adj(1).toSeq == Seq(0, 2, 4))
  }

  test("edited does not mutate the original") {
    val before = triangle.edges
    triangle.edited(Seq((0, 3)), Seq((0, 1)))
    assert(triangle.edges == before)
  }

  test("edited round-trip restores the original graph") {
    val g2 = triangle.edited(Seq((0, 3)), Seq((1, 2)))
    val g3 = g2.edited(Seq((1, 2)), Seq((0, 3)))
    assert(g3.edges == triangle.edges)
  }

  test("edited rejects out-of-range vertex ids") {
    intercept[IllegalArgumentException](triangle.edited(Seq((0, 9)), Nil))
    intercept[IllegalArgumentException](triangle.edited(Nil, Seq((-1, 2))))
  }

  test("edited: duplicate edits act once") {
    val g = triangle.edited(Seq((0, 3), (3, 0), (0, 3)), Seq((1, 2), (2, 1)))
    assert(g.adj(0).toSeq == Seq(1, 2, 3) && g.adj(3).toSeq == Seq(0))
    assert(g.edges == Seq((0, 1), (0, 2), (0, 3)))
  }

  test("edited: deleting a missing edge is a no-op") {
    val g = triangle.edited(Nil, Seq((0, 3), (2, 2)))
    assert(g.edges == triangle.edges)
  }

  test("edited: a pair deleted and inserted in one batch is present") {
    val g = triangle.edited(Seq((0, 1), (1, 3)), Seq((0, 1), (1, 3)))
    assert(g.edges == Seq((0, 1), (0, 2), (1, 2), (1, 3)))
  }

  test("edited equals fromEdges on the edited edge list for random batches") {
    val n = 30
    for (s <- 0 until 20) {
      val rng = Rng.forItem(s, 0L, Rng.SaltGen)
      def pairs(k: Int) = Seq.fill(k)((rng.nextInt(n), rng.nextInt(n)))
      val g = LocalGraph.fromEdges(n, pairs(60))
      // Deletions mix existing edges and absent pairs; insertions may repeat
      // existing edges, deleted pairs and self-loops.
      val del = g.edges.filter(_ => rng.nextDouble() < 0.3) ++ pairs(10)
      val ins = pairs(20) ++ del.take(3) ++ g.edges.take(3)
      val want = (g.edges.toSet -- del.flatMap { case (u, v) => Seq((u, v), (v, u)) }) ++ ins
      val got = g.edited(ins, del).adj.map(_.toSeq).toSeq
      assert(got == LocalGraph.fromEdges(n, want).adj.map(_.toSeq).toSeq, s"seed $s")
    }
  }
}
