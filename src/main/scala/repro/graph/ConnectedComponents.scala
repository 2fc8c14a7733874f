package repro.graph

import org.apache.spark.rdd.RDD

/** Connected components, labelled by the minimum vertex id of each.
  *
  * The paper's post-processing finds communities as connected components of
  * the similarity-filtered graph, citing a MapReduce CC algorithm (Chitnis
  * et al., ICDE 2013). The Spark engine instead uses Kruskal filtering
  * ([[SpanningForest.spark]], Lattanzi et al., SPAA 2011), which gives the
  * same components in one pass.
  */
object ConnectedComponents {

  /** Local union–find; returns component representative per vertex
    * (minimum id in the component).
    */
  def local(n: Int, edges: Iterable[(Int, Int)]): Array[Int] = {
    val uf = new UnionFind(n)
    edges.foreach { case (u, v) => uf.union(u, v) }
    val minOf = Array.fill(n)(Int.MaxValue)
    (0 until n).foreach { v => val r = uf.find(v); minOf(r) = math.min(minOf(r), v) }
    Array.tabulate(n)(v => minOf(uf.find(v)))
  }

  /** `(vertex, componentMinId)` for every vertex appearing in `edges`, any
    * `Long` ids: [[SpanningForest.spark]] with every weight equal, then
    * [[local]] over the forest on the driver. The forest numbers vertices in
    * ascending id order, so a component's minimum index is its minimum id.
    */
  def spark(edges: RDD[(Long, Long)]): RDD[(Long, Long)] = {
    val (ids, f) = SpanningForest.spark(edges.map((_, 1.0)))
    val comp = local(ids.length, f.u.zip(f.v))
    edges.sparkContext.parallelize(ids.indices.map(i => (ids(i), ids(comp(i)))))
  }
}
