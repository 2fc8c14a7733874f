package repro.graph

import org.apache.spark.rdd.RDD

/** Weighted undirected edges `(u(k), v(k), w(k))` as parallel arrays. */
final class EdgeWeights(val u: Array[Int], val v: Array[Int], val w: Array[Double]) extends Serializable {
  require(u.length == v.length && v.length == w.length, "edge arrays differ in length")

  def size: Int = w.length
}

/** Maximum spanning forests (Kruskal). At every threshold τ a forest's
  * edges with weight ≥ τ connect what its input's edges with weight ≥ τ
  * connect, and each vertex keeps its maximum incident weight: its first
  * edge in descending order joins, as the vertex is still a singleton.
  * Both hold for the forest of a union of forests, hence Kruskal filtering.
  */
object SpanningForest {

  /** A maximum spanning forest of `w` on `[0, n)`. */
  def local(n: Int, w: EdgeWeights): EdgeWeights = {
    val uf = new UnionFind(n)
    val kept = descendingOrder(w.w).filter(k => uf.union(w.u(k), w.v(k)))
    new EdgeWeights(kept.map(w.u), kept.map(w.v), kept.map(w.w))
  }

  /** Kruskal filtering (Lattanzi et al., SPAA 2011) of `edges`, any `Long`
    * ids: their vertex ids, ascending, and a maximum spanning forest over
    * their indices. Every partition reduces its edges to such a pair, and
    * `treeReduce` merges two pairs with the same function: one job.
    */
  def spark(edges: RDD[((Long, Long), Double)]): (Array[Long], EdgeWeights) = {
    if (edges.partitions.isEmpty) return reduce(Array.empty, Array.empty, Array.empty, Array.empty)
    edges.mapPartitions { it =>
      val es = it.toArray
      Iterator(reduce(Array.empty, es.map(_._1._1), es.map(_._1._2), es.map(_._2)))
    }.treeReduce { case ((ia, fa), (ib, fb)) =>
      reduce(ia ++ ib, fa.u.map(ia(_)) ++ fb.u.map(ib(_)), fa.v.map(ia(_)) ++ fb.v.map(ib(_)), fa.w ++ fb.w)
    }
  }

  /** The ids of `ids` and of the edges `(us(k), vs(k), ws(k))`, ascending,
    * and the forest of the edges over their indices. Primitive arrays
    * throughout: one sort, an in-place dedupe and binary searches, without
    * boxing.
    */
  private def reduce(ids: Array[Long], us: Array[Long], vs: Array[Long],
                     ws: Array[Double]): (Array[Long], EdgeWeights) = {
    val all = ids ++ us ++ vs
    java.util.Arrays.sort(all)
    var d = 0
    var i = 0
    while (i < all.length) {
      if (d == 0 || all(i) != all(d - 1)) { all(d) = all(i); d += 1 }
      i += 1
    }
    val distinct = java.util.Arrays.copyOf(all, d)
    def at(xs: Array[Long]): Array[Int] = {
      val out = new Array[Int](xs.length)
      var k = 0
      while (k < xs.length) { out(k) = java.util.Arrays.binarySearch(distinct, xs(k)); k += 1 }
      out
    }
    (distinct, local(d, new EdgeWeights(at(us), at(vs), ws)))
  }

  /** Indices of `w` by descending value, without boxing: each index is
    * packed under the rank of its value among the distinct values.
    */
  def descendingOrder(w: Array[Double]): Array[Int] = {
    val distinct = w.clone()
    java.util.Arrays.sort(distinct)
    var d = 0
    var i = 0
    while (i < distinct.length) {
      if (i == 0 || distinct(i) != distinct(d - 1)) { distinct(d) = distinct(i); d += 1 }
      i += 1
    }
    val keys = Array.tabulate(w.length) { k =>
      val rank = java.util.Arrays.binarySearch(distinct, 0, d, w(k))
      ((d - 1 - rank).toLong << 32) | k
    }
    java.util.Arrays.sort(keys)
    keys.map(_.toInt)
  }
}
