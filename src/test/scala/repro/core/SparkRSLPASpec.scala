package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.graph.{GraphGen, GraphOps, LocalGraph}

class SparkRSLPASpec extends AnyFunSuite with SparkSpec {

  private def assertStateMatches(local: RslpaState,
                                 dist: Map[Long, SparkRSLPA.RVState]): Unit = {
    assert(dist.size == local.n)
    for (i <- 0 until local.n) {
      val d = dist(i.toLong)
      assert(d.labels.toSeq == local.labels(i).toSeq, s"labels differ at $i")
      assert(d.srcs.drop(1).map(_.toInt).toSeq == local.srcs(i).drop(1).toSeq, s"srcs differ at $i")
      assert(d.poss.drop(1).toSeq == local.poss(i).drop(1).toSeq, s"poss differ at $i")
      for (p <- 0 until d.recv.length) {
        val dr = d.recv(p).map { case (tar, k) => (tar.toInt, k) }.toSet
        assert(dr == local.receivers(i, p).toSet, s"recv differ at ($i,$p)")
      }
    }
  }

  test("spark rSLPA state is bit-identical to local on a small graph") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (2, 3)))
    val local = LocalRSLPA.propagate(g, T = 8, seed = 21)
    val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 8, 21)
      .collect().toMap
    assertStateMatches(local, dist)
  }

  for (seed <- Seq(1L, 2L)) {
    test(s"spark rSLPA matches local on a random power-law graph (seed=$seed)") {
      val g = GraphGen.webGraphLocal(7, 350, seed = seed)._2
      val local = LocalRSLPA.propagate(g, T = 10, seed = seed * 17)
      val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 10, seed * 17)
        .collect().toMap
      assertStateMatches(local, dist)
    }
  }

  test("spark rSLPA handles isolated vertices (self-picks)") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1))) // 2, 3 isolated
    val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 6, 5)
      .collect().toMap
    assert(dist(2L).labels.forall(_ == 2L))
    assert(dist(3L).labels.forall(_ == 3L))
    assertStateMatches(LocalRSLPA.propagate(g, 6, 5), dist)
  }

  test("spark rSLPA memory lengths are T+1") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    SparkRSLPA.propagate(GraphOps.adjacencyRDD(spark.sparkContext, g), 9, 6)
      .collect()
      .foreach { case (_, st) =>
        assert(st.labels.length == 10 && st.srcs.length == 10 && st.poss.length == 10)
      }
  }
}
