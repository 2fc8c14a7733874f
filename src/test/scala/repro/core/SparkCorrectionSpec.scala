package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.dynamic.EditBatch
import repro.graph.{GraphGen, GraphOps, LocalGraph}

class SparkCorrectionSpec extends AnyFunSuite with SparkSpec {

  private def runBoth(g0: LocalGraph, g1: LocalGraph, T: Int, seed: Long, epoch: Long) = {
    val localSt = LocalRSLPA.propagate(g0, T, seed)
    LocalIncremental.update(g0, g1, localSt, seed, epoch)

    val sc = spark.sparkContext
    val distSt0 = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g0), T, seed)
    val (distSt, stats) = SparkCorrection.update(
      distSt0, GraphOps.adjacencyRDD(sc, g1), T, seed, epoch)
    (localSt, distSt.collect().toMap, stats)
  }

  private def assertMatches(local: RslpaState, dist: Map[Long, SparkRSLPA.RVState]): Unit = {
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

  test("spark correction matches local incremental on a hand-made edit") {
    val g0 = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 2)))
    val g1 = g0.edited(Seq((1, 4)), Seq((2, 3)))
    val (local, dist, stats) = runBoth(g0, g1, T = 8, seed = 31, epoch = 1)
    assertMatches(local, dist)
    assert(stats.repicked > 0)
  }

  for (seed <- Seq(3L, 4L)) {
    test(s"spark correction matches local on a random graph + batch (seed=$seed)") {
      val g0 = GraphGen.webGraphLocal(7, 300, seed = seed)._2
      val batch = EditBatch.halfAndHalf(g0, 30, seed = seed * 7)
      val g1 = g0.edited(batch.insertions, batch.deletions)
      val (local, dist, _) = runBoth(g0, g1, T = 10, seed = seed * 11, epoch = 2)
      assertMatches(local, dist)
    }
  }

  test("spark correction with an empty batch is a no-op") {
    val g0 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val (local, dist, stats) = runBoth(g0, g0, T = 6, seed = 32, epoch = 1)
    assert(stats.repicked == 0 && stats.corrected == 0)
    assertMatches(local, dist)
  }

  test("spark correction handles vertices becoming isolated") {
    val g0 = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (0, 2)))
    val g1 = g0.edited(Nil, Seq((0, 1), (0, 2)))
    val (local, dist, _) = runBoth(g0, g1, T = 7, seed = 33, epoch = 1)
    assertMatches(local, dist)
    assert(dist(0L).labels.forall(_ == 0L))
  }

  test("spark correction invariants hold on the new graph") {
    val g0 = GraphGen.webGraphLocal(6, 150, seed = 8)._2
    val batch = EditBatch.halfAndHalf(g0, 20, seed = 9)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    val (_, dist, _) = runBoth(g0, g1, T = 8, seed = 35, epoch = 1)
    // Rebuild an RslpaState from the distributed result and check it.
    val st = new RslpaState(
      g1.n, 8,
      Array.tabulate(g1.n)(i => dist(i.toLong).labels),
      Array.tabulate(g1.n)(i => dist(i.toLong).srcs.map(_.toInt)),
      Array.tabulate(g1.n)(i => dist(i.toLong).poss)
    )
    val errs = st.checkInvariants(g1.adj)
    assert(errs.isEmpty, errs.take(5).mkString("; "))
    // The state threads R from the picks; Spark's own R must agree with it.
    for (i <- 0 until g1.n; p <- 0 to 8) {
      val dr = dist(i.toLong).recv(p).map { case (tar, k) => (tar.toInt, k) }.toSet
      assert(dr == st.receivers(i, p).toSet, s"spark recv differs at ($i,$p)")
    }
  }

  test("a cascade many hops from the edit loads rows over several rounds and still matches local") {
    // On a path a label reaches a vertex only through its neighbors. The
    // edit re-picks only at vertices 0-2, from sources in 0-3, so the row of
    // a label that changes at vertex v > 3 is found in the driver's
    // (v - 3)-th round of closure loading.
    val n = 60; val T = 200; val seed = 38L
    val g0 = LocalGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))
    val g1 = g0.edited(Seq((0, 2)), Seq((0, 1)))
    val before = LocalRSLPA.propagate(g0, T, seed).labels
    val (local, dist, stats) = runBoth(g0, g1, T, seed, epoch = 1)
    assertMatches(local, dist)
    val far = (6 until n).filter(v => !before(v).sameElements(local.labels(v)))
    assert(far.nonEmpty, "no label changed beyond vertex 5")
    assert(stats.corrected == changedLabels(before, local.labels))
  }

  test("vertex ids whose label keys overflow are rejected on the driver") {
    val sc = spark.sparkContext
    val T = 10; val big = Correction.maxVertex(T) + 1
    val st0 = SparkRSLPA.propagate(sc.parallelize(Seq((0L, Array(big)), (big, Array(0L)))), T, seed = 39)
    val err = intercept[IllegalArgumentException] {
      val isolated = sc.parallelize(Seq((0L, Array.empty[Long]), (big, Array.empty[Long])))
      SparkCorrection.update(st0, isolated, T, 39, 1)
    }
    assert(err.getMessage.contains(s"vertex id $big is outside"), err.getMessage)
  }

  private def changedLabels(before: Array[Array[Long]], after: Array[Array[Long]]): Long =
    before.indices.map(i => before(i).indices.count(t => before(i)(t) != after(i)(t)).toLong).sum

  test("chained batches: spark matches local after each, and both count the same eta") {
    val sc = spark.sparkContext
    val T = 10; val seed = 37L
    var g = GraphGen.webGraphLocal(7, 300, seed = 12)._2
    val local = LocalRSLPA.propagate(g, T, seed)
    var dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g), T, seed)
    for (epoch <- 1 to 3) {
      val batch = EditBatch.halfAndHalf(g, 40, seed = 200 + epoch)
      val g1 = g.edited(batch.insertions, batch.deletions)
      val before = local.labels.map(_.clone())
      val localStats = LocalIncremental.update(g, g1, local, seed, epoch)
      val (dist1, distStats) = SparkCorrection.update(dist, GraphOps.adjacencyRDD(sc, g1), T, seed, epoch)
      val collected = dist1.collect().toMap
      assertMatches(local, collected)
      val eta = changedLabels(before, local.labels)
      assert(eta > 0, s"batch $epoch changed no label")
      assert(localStats.corrected == eta, s"local corrected at batch $epoch")
      assert(distStats.corrected == eta, s"spark corrected at batch $epoch")
      assert(distStats.repicked == localStats.repicked, s"repicked at batch $epoch")
      assert(distStats.touched == localStats.touched, s"touched at batch $epoch")
      assert(distStats.rounds == localStats.rounds, s"rounds at batch $epoch")
      g = g1; dist = dist1
    }
  }
}
