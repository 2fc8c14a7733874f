package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}

class GraphStatsSpec extends AnyFunSuite with SparkSpec {

  private lazy val directed = GraphGen.rmatEdgesLocal(8, 800, seed = 21)
  private lazy val df = {
    import spark.implicits._
    directed.toDF("src", "dst")
  }

  /** The statistics of [[GraphStats.tableII]] computed locally, as its oracle. */
  private def tableIILocal(directed: Seq[(Long, Long)]): TableIIStats = {
    val e = directed.filter { case (s, d) => s != d }.distinct
    val nodes = e.flatMap { case (s, d) => Seq(s, d) }.distinct.size.toLong
    val maxOut = e.groupBy(_._1).values.map(_.size).max.toLong
    val maxIn  = e.groupBy(_._2).values.map(_.size).max.toLong
    TableIIStats(nodes, e.size.toLong, e.size.toDouble / nodes, maxIn, maxOut)
  }

  test("tableII matches the local computation") {
    val got = GraphStats.tableII(spark, df)
    val exp = tableIILocal(directed)
    assert(got == exp)
  }

  test("tableII average degree is edges/nodes") {
    val s = GraphStats.tableII(spark, df)
    assert(math.abs(s.avgDegree - s.edges.toDouble / s.nodes) < 1e-12)
  }

  test("tableII on a tiny hand graph") {
    import spark.implicits._
    val tiny = Seq((1L, 2L), (1L, 3L), (2L, 3L), (3L, 1L), (4L, 4L)).toDF("src", "dst")
    val s = GraphStats.tableII(spark, tiny)
    // (4,4) is a self-loop and is dropped; 4 distinct directed edges remain
    // over nodes {1,2,3}; vertex 1 has out-degree 2, vertex 3 in-degree 2.
    assert(s.nodes == 3 && s.edges == 4)
    assert(s.maxOutDegree == 2 && s.maxInDegree == 2)
  }

  test("canonicalDirected agrees with DuckDB (Oracle)") {
    import spark.implicits._
    val input = directed.toDF("src", "dst")
    val sparkDf = GraphStats.canonicalDirected(input)
      .groupBy("src").count()
      .select(org.apache.spark.sql.functions.col("src"),
              org.apache.spark.sql.functions.col("count").as("outdeg"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT src, COUNT(*) AS outdeg FROM (SELECT DISTINCT src, dst FROM edges WHERE src <> dst) GROUP BY src",
      "edges" -> input
    )
  }

  test("max in-degree agrees with DuckDB (Oracle)") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val input = directed.toDF("src", "dst")
    val sparkDf = GraphStats.canonicalDirected(input)
      .groupBy("dst").count().agg(max("count").as("maxindeg"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT MAX(c) AS maxindeg FROM (SELECT dst, COUNT(*) AS c FROM (SELECT DISTINCT src, dst FROM edges WHERE src <> dst) GROUP BY dst)",
      "edges" -> input
    )
  }
}
