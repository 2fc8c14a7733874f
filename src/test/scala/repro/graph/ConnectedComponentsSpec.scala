package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.util.{Rng, SplitMix64}

class ConnectedComponentsSpec extends AnyFunSuite with SparkSpec {

  /** Brute-force reference: BFS flood fill. */
  private def bfs(n: Int, edges: Seq[(Int, Int)]): Array[Int] = {
    val adj = Array.fill(n)(List.empty[Int])
    edges.foreach { case (u, v) => adj(u) ::= v; adj(v) ::= u }
    val comp = Array.fill(n)(-1)
    for (s <- 0 until n if comp(s) == -1) {
      comp(s) = s
      var frontier = List(s)
      while (frontier.nonEmpty) {
        val next = frontier.flatMap(adj).filter(comp(_) == -1)
        next.foreach(comp(_) = s)
        frontier = next.distinct
      }
    }
    comp
  }

  /** Sparse ids, increasing in `v`, beyond the `Int` range. */
  private def sparse(v: Int): Long = v * (1L << 33) + 5

  /** [[ConnectedComponents.spark]] over `edges` cut into `parts` partitions;
    * checks that each vertex appears once.
    */
  private def sparkCC(edges: Seq[(Long, Long)], parts: Int): Map[Long, Long] = {
    val got = ConnectedComponents.spark(spark.sparkContext.parallelize(edges, parts)).collect()
    assert(got.map(_._1).distinct.length == got.length, "a vertex appears twice")
    got.toMap
  }

  /** BFS components of the vertices in `edges`, each mapped to its minimum
    * sparse id ([[bfs]] labels a component by its smallest vertex).
    */
  private def bfsMin(n: Int, edges: Seq[(Int, Int)]): Map[Long, Long] = {
    val comp = bfs(n, edges)
    edges.flatMap { case (u, v) => Seq(u, v) }.map(v => sparse(v) -> sparse(comp(v))).toMap
  }

  test("local: empty graph yields singletons") {
    val c = ConnectedComponents.local(4, Nil)
    assert(c.toSeq == Seq(0, 1, 2, 3))
  }

  test("local: one edge merges two vertices") {
    val c = ConnectedComponents.local(3, Seq((1, 2)))
    assert(c(1) == c(2) && c(0) != c(1))
  }

  test("local: chain is one component rooted at min id") {
    val c = ConnectedComponents.local(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    assert(c.forall(_ == 0))
  }

  test("local: two cliques stay separate") {
    val c = ConnectedComponents.local(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert(c.take(3).forall(_ == 0) && c.drop(3).forall(_ == 3))
  }

  for (seed <- 0 until 5) {
    test(s"local matches BFS on random graph (seed=$seed)") {
      val rng = new SplitMix64(seed)
      val n = 60
      val edges = (1 to 80).map(_ => (rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val a = ConnectedComponents.local(n, edges)
      val b = bfs(n, edges)
      // Same partition: equal labels iff same component.
      for (u <- 0 until n; v <- u + 1 until n)
        assert((a(u) == a(v)) == (b(u) == b(v)), s"($u,$v) disagree")
    }
  }

  test("spark CC matches local on a fixed graph") {
    val edges = Seq((0L, 1L), (1L, 2L), (5L, 6L), (7L, 7L))
    val got = ConnectedComponents.spark(spark.sparkContext.parallelize(edges)).collect().toMap
    assert(got(0L) == got(1L) && got(1L) == got(2L))
    assert(got(5L) == got(6L))
    assert(got(5L) != got(0L))
    assert(got(7L) == 7L)
  }

  for (seed <- 10 until 13) {
    test(s"spark CC matches local union-find on random graph (seed=$seed)") {
      val rng = Rng.forItem(seed, 0, Rng.SaltGen)
      val n = 80
      val edges = (1 to 100).map(_ => (rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val local = ConnectedComponents.local(n, edges)
      val got = ConnectedComponents
        .spark(spark.sparkContext.parallelize(edges.map { case (u, v) => (u.toLong, v.toLong) }))
        .collect().toMap
      // Vertices present in edges must agree with the local partition.
      val present = edges.flatMap { case (u, v) => Seq(u, v) }.distinct
      for (u <- present; v <- present if u < v)
        assert((got(u.toLong) == got(v.toLong)) == (local(u) == local(v)), s"($u,$v) disagree")
    }
  }

  test("spark CC component ids are the minimum vertex id") {
    val edges = Seq((3L, 9L), (9L, 4L), (10L, 12L))
    val got = ConnectedComponents.spark(spark.sparkContext.parallelize(edges)).collect().toMap
    assert(got(3L) == 3L && got(9L) == 3L && got(4L) == 3L)
    assert(got(10L) == 10L && got(12L) == 10L)
  }

  for (parts <- Seq(1, 3, 8); seed <- 20 until 23) {
    test(s"spark CC equals BFS on a random graph with sparse ids (seed=$seed, $parts partitions)") {
      val rng = new SplitMix64(seed)
      val n = 80
      val edges = (1 to 70).map(_ => (rng.nextInt(n), rng.nextInt(n)))
      val got = sparkCC(edges.map { case (u, v) => (sparse(u), sparse(v)) }, parts)
      assert(got == bfsMin(n, edges))
    }
  }

  for (parts <- Seq(1, 3, 8)) {
    test(s"spark CC joins the 63-edge path with sparse ids across $parts partitions") {
      val edges = (0 until 63).map(i => (i + 1, i))
      val got = sparkCC(edges.map { case (u, v) => (sparse(u), sparse(v)) }, parts)
      assert(got == bfsMin(64, edges))
      assert(got.size == 64 && got.values.toSet == Set(sparse(0)))
    }
  }

  test("spark CC keeps a vertex whose only edge is a self-loop") {
    val edges = Seq((sparse(4), sparse(4)), (sparse(9), sparse(2)), (sparse(2), sparse(7)))
    val got = sparkCC(edges, 3)
    assert(got == Map(sparse(4) -> sparse(4), sparse(2) -> sparse(2), sparse(7) -> sparse(2), sparse(9) -> sparse(2)))
  }

  test("spark CC of empty input is empty, with or without partitions") {
    val sc = spark.sparkContext
    assert(ConnectedComponents.spark(sc.emptyRDD[(Long, Long)]).collect().isEmpty)
    assert(ConnectedComponents.spark(sc.parallelize(Seq.empty[(Long, Long)], 4)).collect().isEmpty)
  }

  test("spark CC joins a 64-vertex path into one component") {
    val edges = (0L until 63L).map(i => (i, i + 1))
    val got = ConnectedComponents.spark(spark.sparkContext.parallelize(edges)).collect().toMap
    assert(got.values.toSet == Set(0L))
  }
}
