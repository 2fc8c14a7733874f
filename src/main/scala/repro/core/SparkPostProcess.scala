package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.graph.{EdgeWeights, SpanningForest}

/** Distributed rSLPA post-processing (§III-B): edge similarity weights,
  * threshold selection (Eqs. 1–2) and community extraction via connected
  * components with weight filtering — "we slightly change the existing
  * algorithm of finding connected components by adding filtering on edge
  * weights" (§V-B2): τ2, τ1 and the components at τ1 all come from one
  * maximum spanning forest of the weights ([[SpanningForest.spark]]) over
  * any `Long` ids. Weights, τ2, τ1 and the cover call the local engine's
  * kernels ([[PostKernel]]): both engines give the same ones from the same labels.
  */
object SparkPostProcess {

  /** Extraction result: the overlapping communities, as vertex ids, and τ1, τ2. */
  final case class SparkCover(cover: Vector[Set[Long]], tau1: Double, tau2: Double)

  /** w_uv = P(uniform draw from L_u = uniform draw from L_v) for every
    * canonical (u < v) edge. `memLen` is the memory length (T + 1). Labels
    * must be vertex ids of `labels`, of any value: the ids are collected,
    * sorted and broadcast once, and each memory is shipped with its labels
    * mapped to their ranks (the identity for dense ids `[0, n)`). Each task
    * then matches its joined edges in one [[PostKernel.Scatter]] over
    * `[0, n)`, the local engine's kernel. A label that is not a vertex id
    * fails where it is mapped.
    */
  def edgeWeights(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
                  memLen: Int): RDD[((Long, Long), Double)] = {
    val sorted = labels.keys.collect()
    java.util.Arrays.sort(sorted)
    val ids = labels.sparkContext.broadcast(sorted)
    val ranked = labels.mapPartitions(_.map { case (u, mem) =>
      (u, mem.map { l =>
        val r = java.util.Arrays.binarySearch(ids.value, l)
        if (r < 0) throw new IllegalArgumentException(s"edgeWeights: vertex $u holds label $l, which is not a vertex id")
        r.toLong
      })
    }, preservesPartitioning = true)
    val denom = (memLen.toLong * memLen).toDouble
    edges
      .join(ranked)
      .map { case (u, (v, mu)) => (v, (u, mu)) }
      .join(ranked)
      .mapPartitions { it =>
        val scatter = new PostKernel.Scatter(ids.value.length)
        it.map { case (v, ((u, mu), mv)) =>
          scatter.load(mu)
          val m = scatter.matches(mv)
          scatter.unload(mu)
          ((u, v), m / denom)
        }
      }
  }

  /** τ2 = min over non-isolated vertices of the max incident weight (Eq. 2):
    * [[PostKernel.tau2]] over the Kruskal-filtered forest of `w`, which
    * keeps every vertex's maximum incident weight. One job; persist `w`.
    */
  def chooseTau2(w: RDD[((Long, Long), Double)]): Double = {
    val (ids, f) = SpanningForest.spark(w)
    PostKernel.tau2(ids.length, f)
  }

  /** τ1 = argmax of size entropy over the local engine's grid in [τ2, max w]
    * (Eq. 1) on `n` vertices: [[PostKernel.chooseTau1]] over the
    * Kruskal-filtered forest of `w`. `w` may hold at most `n` distinct
    * vertex ids, of any value. One job; persist `w`.
    */
  def chooseTau1(w: RDD[((Long, Long), Double)], tau2: Double, n: Long): Double = {
    require(n <= Int.MaxValue, s"chooseTau1 needs n <= Int.MaxValue vertices, got $n")
    val (ids, f) = SpanningForest.spark(w)
    require(ids.length <= n, s"chooseTau1: w has ${ids.length} distinct vertices, more than n = $n")
    PostKernel.chooseTau1(n.toInt, f, tau2)
  }

  /** Full extraction from one Kruskal-filtering pass over w: the forest
    * gives τ2, τ1 and the components at τ1 ([[PostKernel.members]]) on the
    * driver. One pass over w against the broadcast membership collects the
    * edges with w ≥ τ2 that join a member to a non-member, and
    * [[PostKernel.cover]] attaches over them, as in the local engine. Two
    * jobs after the weights and the vertex count; w is unpersisted after.
    */
  def extract(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
              memLen: Int): SparkCover = {
    val w = edgeWeights(labels, edges, memLen).persist(StorageLevel.MEMORY_AND_DISK)
    val n = labels.count()
    val (ids, f) = SpanningForest.spark(w)
    val tau2 = PostKernel.tau2(ids.length, f)
    val tau1 = PostKernel.chooseTau1(n.toInt, f, tau2) // w's vertices are keys of labels
    val member = PostKernel.members(ids.length, f, tau1)
    val b = w.sparkContext.broadcast((ids, member))
    val attach = w.flatMap { case ((u, v), x) =>
      val (ids, member) = b.value
      val i = java.util.Arrays.binarySearch(ids, u); val j = java.util.Arrays.binarySearch(ids, v)
      if (x >= tau2 && (member(i) < 0) != (member(j) < 0)) Some((i, j, x)) else None
    }.collect()
    w.unpersist()
    val cover = PostKernel.cover(member, new EdgeWeights(attach.map(_._1), attach.map(_._2), attach.map(_._3)), tau2)
    SparkCover(cover.map(_.map(ids(_))), tau1, tau2)
  }
}
