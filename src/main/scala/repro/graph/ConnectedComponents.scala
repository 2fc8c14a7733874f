package repro.graph

import org.apache.spark.rdd.RDD

import scala.collection.immutable.ArraySeq

/** Connected components, labelled by the minimum vertex id of each.
  *
  * The paper's post-processing finds communities as connected components of
  * the similarity-filtered graph, citing a MapReduce CC algorithm (Chitnis
  * et al., ICDE 2013). The Spark engine instead uses Kruskal filtering
  * (Lattanzi et al., SPAA 2011), which gives the same components in one
  * pass: each partition reduces its edges to one link per vertex, and link
  * sets merge pairwise because the links of a union of graphs connect
  * exactly what the graphs connect. The τ1 search itself needs no CC runs:
  * it sweeps a [[UnionFind]] once (`repro.core.PostKernel`).
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
    * `Long` ids. Every partition reduces its edges to such links
    * ([[minLinks]]), `treeReduce` merges link sets with the same function,
    * and the driver, holding one link per vertex, parallelizes the result.
    */
  def spark(edges: RDD[(Long, Long)]): RDD[(Long, Long)] = {
    val sc = edges.sparkContext
    if (edges.partitions.isEmpty) return sc.emptyRDD
    val links = edges
      .mapPartitions(it => Iterator(minLinks(it.toArray)))
      .treeReduce((a, b) => minLinks(a ++ b))
    sc.parallelize(ArraySeq.unsafeWrapArray(links))
  }

  /** [[local]] over the vertices of `edges` numbered in ascending id order,
    * so that a component's minimum index is its minimum id.
    */
  private def minLinks(edges: Array[(Long, Long)]): Array[(Long, Long)] = {
    val ids = (edges.map(_._1) ++ edges.map(_._2)).sorted.distinct
    def at(id: Long) = java.util.Arrays.binarySearch(ids, id)
    val comp = local(ids.length, edges.map { case (u, v) => (at(u), at(v)) })
    Array.tabulate(ids.length)(i => (ids(i), ids(comp(i))))
  }
}
