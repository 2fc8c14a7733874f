package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}

class GraphStatsSpec extends AnyFunSuite with SparkSpec {

  private lazy val directed = GraphGen.webGraphLocal(8, 800, seed = 21)._1

  /** The directed edges as a DuckDB table for [[Oracle]]. */
  private def edgesTable = {
    import spark.implicits._
    "edges" -> directed.toDF("src", "dst")
  }

  /** The statistics of [[GraphStats.tableII]] computed with collections, as its oracle. */
  private def tableIINaive(directed: Seq[(Int, Int)]): TableIIStats = {
    val e = directed.filter { case (s, d) => s != d }.distinct
    val nodes = e.flatMap { case (s, d) => Seq(s, d) }.distinct.size.toLong
    val maxOut = e.groupBy(_._1).values.map(_.size).max.toLong
    val maxIn  = e.groupBy(_._2).values.map(_.size).max.toLong
    TableIIStats(nodes, e.size.toLong, e.size.toDouble / nodes, maxIn, maxOut)
  }

  test("tableII matches the local computation") {
    assert(GraphStats.tableII(directed) == tableIINaive(directed))
  }

  test("tableII average degree is edges/nodes") {
    val s = GraphStats.tableII(directed)
    assert(math.abs(s.avgDegree - s.edges.toDouble / s.nodes) < 1e-12)
  }

  test("tableII on a tiny hand graph") {
    val s = GraphStats.tableII(Seq((1, 2), (1, 3), (2, 3), (3, 1), (4, 4), (1, 2)))
    // (4,4) is a self-loop and (1,2) a repeat, both dropped; 4 distinct
    // directed edges remain over nodes {1,2,3}; vertex 1 has out-degree 2,
    // vertex 3 in-degree 2.
    assert(s.nodes == 3 && s.edges == 4)
    assert(s.maxOutDegree == 2 && s.maxInDegree == 2)
  }

  test("canonicalDirected agrees with DuckDB (Oracle)") {
    import spark.implicits._
    val outdeg = GraphStats.canonicalDirected(directed).toSeq
      .groupBy(_._1).map { case (s, es) => (s, es.size.toLong) }.toSeq
      .toDF("src", "outdeg")
    Oracle.assertEquivalent(
      outdeg,
      "SELECT src, COUNT(*) AS outdeg FROM (SELECT DISTINCT src, dst FROM edges WHERE src <> dst) GROUP BY src",
      edgesTable
    )
  }

  test("max in-degree agrees with DuckDB (Oracle)") {
    import spark.implicits._
    val s = GraphStats.tableII(directed)
    Oracle.assertEquivalent(
      Seq((s.maxInDegree, s.nodes, s.edges)).toDF("maxindeg", "nodes", "edges"),
      """WITH e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst)
        |SELECT (SELECT MAX(c) FROM (SELECT dst, COUNT(*) AS c FROM e GROUP BY dst)) AS maxindeg,
        |       (SELECT COUNT(*) FROM (SELECT src AS v FROM e UNION SELECT dst FROM e)) AS nodes,
        |       (SELECT COUNT(*) FROM e) AS edges""".stripMargin,
      edgesTable
    )
  }
}
