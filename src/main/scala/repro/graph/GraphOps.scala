package repro.graph

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD

/** Bridges between the local graph representation and the RDD layer the
  * distributed engines consume.
  */
object GraphOps {

  /** `(vid, sortedNeighbors)` for every vertex of `g` (including isolated
    * ones — the engines must handle degree 0).
    */
  def adjacencyRDD(sc: SparkContext, g: LocalGraph): RDD[(Long, Array[Long])] =
    sc.parallelize((0 until g.n).map(i => (i.toLong, g.adj(i).map(_.toLong))))

  /** Canonical (u < v) undirected edge list of `g`. */
  def edgesRDD(sc: SparkContext, g: LocalGraph): RDD[(Long, Long)] =
    sc.parallelize(g.edges.map { case (u, v) => (u.toLong, v.toLong) })
}
