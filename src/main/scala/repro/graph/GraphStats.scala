package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Dataset statistics in the shape of the paper's Table II:
  * node count, edge count, average degree, max in-degree, max out-degree —
  * computed over a *directed* edge list (`src`, `dst`), matching how the
  * paper reports the raw eu-2015-tpd crawl before undirecting it.
  */
final case class TableIIStats(nodes: Long, edges: Long, avgDegree: Double,
                              maxInDegree: Long, maxOutDegree: Long)

object GraphStats {

  /** Distinct directed edges (dropping multi-edges, keeping self-loops out). */
  def canonicalDirected(edges: DataFrame): DataFrame =
    edges.select(col("src"), col("dst")).where(col("src") =!= col("dst")).distinct()

  /** Compute Table II statistics with DataFrame aggregations. */
  def tableII(spark: SparkSession, directedEdges: DataFrame): TableIIStats = {
    val e = canonicalDirected(directedEdges).cache()
    val numEdges = e.count()
    val nodes = e.select(col("src").as("v")).union(e.select(col("dst").as("v"))).distinct().count()
    val maxOut = e.groupBy("src").count().agg(max("count")).head.getLong(0)
    val maxIn  = e.groupBy("dst").count().agg(max("count")).head.getLong(0)
    e.unpersist()
    TableIIStats(nodes, numEdges, numEdges.toDouble / nodes, maxIn, maxOut)
  }
}
