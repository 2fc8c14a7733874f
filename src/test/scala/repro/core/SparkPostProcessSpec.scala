package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PostFixtures._
import repro.{Oracle, SparkSpec}
import repro.graph.{GraphGen, GraphOps, LocalGraph}

class SparkPostProcessSpec extends AnyFunSuite with SparkSpec {

  private lazy val g = GraphGen.webGraphLocal(6, 150, seed = 70)._2
  private lazy val localSt = LocalRSLPA.propagate(g, T = 12, seed = 71)
  private def sc = spark.sparkContext

  private def labelsRDD = sc.parallelize(
    (0 until g.n).map(i => (i.toLong, localSt.labels(i))))

  test("spark edge weights match the local computation") {
    val dist = SparkPostProcess.edgeWeights(labelsRDD, GraphOps.edgesRDD(sc, g), memLen = 13)
      .collect().toMap
    val local = asMap(PostProcess.edgeWeights(g, localSt.labels))
    assert(dist.size == local.size)
    local.foreach { case ((u, v), w) =>
      assert(dist((u.toLong, v.toLong)) == w, s"weight differs at ($u,$v)")
    }
  }

  test("spark edge weights reject a label that is not a vertex id") {
    val lbls = sc.parallelize(Seq((0L, Array(0L, 1L)), (1L, Array(1L, 1L)), (5L, Array(5L, 3L))))
    val edges = sc.parallelize(Seq((0L, 1L), (1L, 5L)))
    val e = intercept[Exception](SparkPostProcess.edgeWeights(lbls, edges, 2).collect())
    assert(e.getMessage.contains("vertex 5 holds label 3, which is not a vertex id"), e.getMessage)
  }

  test("DataFrame edge weights agree with DuckDB (Oracle)") {
    import spark.implicits._
    val labelRows = for {
      i <- 0 until g.n; l <- localSt.labels(i)
    } yield (i.toLong, l)
    val labelsDF = labelRows.toDF("vid", "label")
    val edgesDF = g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toDF("u", "v")
    val got = SparkPostProcess.edgeWeights(labelsRDD, GraphOps.edgesRDD(sc, g), memLen = 13)
      .map { case ((u, v), w) => (u, v, w) }
      .toDF("u", "v", "w")
    Oracle.assertEquivalent(
      got,
      """SELECT e.u AS u, e.v AS v,
        |       SUM(cu.cnt * cv.cnt) / (13.0 * 13.0) AS w
        |FROM edges e
        |JOIN (SELECT vid, label, COUNT(*) AS cnt FROM labels GROUP BY vid, label) cu
        |  ON cu.vid = e.u
        |JOIN (SELECT vid, label, COUNT(*) AS cnt FROM labels GROUP BY vid, label) cv
        |  ON cv.vid = e.v AND cv.label = cu.label
        |GROUP BY e.u, e.v""".stripMargin,
      "labels" -> labelsDF, "edges" -> edgesDF
    )
  }

  test("spark tau2 matches local tau2") {
    val w = SparkPostProcess.edgeWeights(labelsRDD, GraphOps.edgesRDD(sc, g), 13)
    val tau2 = PostProcess.chooseTau2(g, PostProcess.edgeWeights(g, localSt.labels))
    for (parts <- Seq(1, 3, 8))
      assert(SparkPostProcess.chooseTau2(w.repartition(parts)) == tau2, s"parts=$parts")
  }

  test("spark extract yields a cover consistent with local extractAt") {
    val cover = SparkPostProcess.extract(labelsRDD, GraphOps.edgesRDD(sc, g), 13)
    val localW = PostProcess.edgeWeights(g, localSt.labels)
    val localCover = PostProcess.extractAt(g, localW, cover.tau1, cover.tau2)
    val distCover = cover.cover.map(_.map(_.toInt)).toSet
    assert(distCover == localCover.toSet,
      s"covers differ: dist=${distCover.size} local=${localCover.size} communities")
    // Both engines choose the same thresholds, so the covers are equal outright.
    val tau2 = PostProcess.chooseTau2(g, localW)
    assert(cover.tau2 == tau2 && cover.tau1 == PostProcess.chooseTau1(g, localW, tau2))
    assert(distCover == PostProcess.extract(g, localSt.labels).toSet)
  }

  for (parts <- Seq(1, 3, 8)) {
    test(s"spark tau1 from partition forests equals the local sweep (parts=$parts)") {
      val w = SparkPostProcess.edgeWeights(labelsRDD, GraphOps.edgesRDD(sc, g), 13)
        .repartition(parts).persist()
      val localW = PostProcess.edgeWeights(g, localSt.labels)
      val tau2 = PostProcess.chooseTau2(g, localW)
      assert(SparkPostProcess.chooseTau1(w, tau2, g.n) == PostProcess.chooseTau1(g, localW, tau2))
      w.unpersist()
    }
  }

  test("extract on a graph with no edges returns an empty cover") {
    val iso = LocalGraph.fromEdges(3, Nil)
    val lbls = sc.parallelize(Seq((0L, Array(0L)), (1L, Array(1L)), (2L, Array(2L))))
    val cover = SparkPostProcess.extract(lbls, sc.emptyRDD[(Long, Long)], 1)
    assert(cover.cover.isEmpty)
  }

  /** Sparse ids, increasing in `v`, beyond the `Int` range. */
  private def sparse(v: Long): Long = v * (1L << 33) + 5

  for (parts <- Seq(1, 3, 8)) {
    test(s"sparse vertex ids give the dense thresholds and cover (parts=$parts)") {
      val labels = sc.parallelize((0 until g.n).map(i => (sparse(i), localSt.labels(i).map(sparse))), parts)
      val edges = sc.parallelize(g.edges.map { case (u, v) => (sparse(u), sparse(v)) }, parts)
      val w = SparkPostProcess.edgeWeights(labels, edges, 13).persist()
      val localW = PostProcess.edgeWeights(g, localSt.labels)
      val tau2 = PostProcess.chooseTau2(g, localW)
      assert(SparkPostProcess.chooseTau2(w) == tau2)
      assert(SparkPostProcess.chooseTau1(w, tau2, g.n) == PostProcess.chooseTau1(g, localW, tau2))
      w.unpersist()
      val cover = SparkPostProcess.extract(labels, edges, 13)
      val dense = cover.cover.map(_.map(v => ((v - 5) >> 33).toInt)).toSet
      assert(dense == PostProcess.extract(g, localSt.labels).toSet)
    }
  }

  test("extract leaves no RDD persisted") {
    val before = sc.getPersistentRDDs.keySet
    SparkPostProcess.extract(labelsRDD, GraphOps.edgesRDD(sc, g), 13)
    assert(sc.getPersistentRDDs.keySet == before)
  }

  /** Three 4-cliques in a ring, each neighbouring pair joined through a
    * bridge vertex adjacent to all eight of their vertices. A clique's
    * memories hold only its first vertex, a bridge's half of each side's
    * clique label, so a bridge edge weighs 1/2 and a clique edge 1: τ2 = 1/2,
    * τ1 > 1/2, and each bridge joins both its communities. The bridges close
    * a cycle, so every spanning forest drops a bridge edge: only w itself
    * attaches each bridge to both sides.
    */
  private lazy val (ring, ringLabels) = {
    def clique(c: Int) = (5 * c until 5 * c + 4).toVector
    val edges = (0 until 3).flatMap { c =>
      val bridge = 5 * c + 4
      clique(c).combinations(2).map { case Seq(a, b) => (a, b) } ++
        (clique(c) ++ clique((c + 1) % 3)).map(v => (v, bridge))
    }
    val labels = Array.tabulate(15) { v =>
      val (a, b) = (5L * (v / 5), 5L * ((v / 5 + 1) % 3))
      if (v % 5 < 4) Array(a, a, a, a) else Array(a, a, b, b)
    }
    (LocalGraph.fromEdges(15, edges), labels)
  }

  for (parts <- Seq(1, 3, 8)) {
    test(s"spark extract equals the local cover where communities overlap, dense and sparse ids (parts=$parts)") {
      val local = PostProcess.extract(ring, ringLabels).toSet
      assert((0 until ring.n).exists(v => local.count(_.contains(v)) >= 2), s"no vertex in two communities: $local")
      for (id <- Seq((v: Long) => v, sparse _)) {
        val labels = sc.parallelize((0 until ring.n).map(v => (id(v), ringLabels(v).map(id))), parts)
        val edges = sc.parallelize(ring.edges.map { case (u, v) => (id(u), id(v)) }, parts)
        assert(SparkPostProcess.extract(labels, edges, 4).cover.toSet == local.map(_.map(v => id(v))))
      }
    }
  }

  test("chooseTau1 rejects w with more than n distinct vertices") {
    val w = sc.parallelize(Seq(((0L, 1L), 0.5), ((1L, 7L), 0.25)))
    val e = intercept[IllegalArgumentException](SparkPostProcess.chooseTau1(w, 0.25, 2))
    assert(e.getMessage.contains("w has 3 distinct vertices, more than n = 2"), e.getMessage)
    assert(SparkPostProcess.chooseTau1(w, 0.25, 3) == PostProcess.chooseTau1(
      LocalGraph.fromEdges(3, Seq((0, 1), (1, 2))), weights(Map((0, 1) -> 0.5, (1, 2) -> 0.25)), 0.25))
  }
}
