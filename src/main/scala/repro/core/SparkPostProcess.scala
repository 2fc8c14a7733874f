package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.graph.{ConnectedComponents, SpanningForest}

/** Distributed rSLPA post-processing (§III-B): edge similarity weights,
  * threshold selection (Eqs. 1–2) and community extraction via connected
  * components with weight filtering — "we slightly change the existing
  * algorithm of finding connected components by adding filtering on edge
  * weights" (§V-B2): τ2, τ1 and the components at τ1 each come from one
  * Kruskal-filtering pass ([[SpanningForest.spark]]) over any `Long` ids.
  * Weights, τ2 and τ1 call the local engine's kernels ([[PostKernel]]), so
  * both engines choose bit-identical thresholds from the same labels.
  */
object SparkPostProcess {

  /** Extraction result: overlapping assignments `(vertex, communityId)`
    * plus the chosen thresholds.
    */
  final case class SparkCover(assignments: RDD[(Long, Long)], tau1: Double, tau2: Double)

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

  /** Full extraction: components at τ1 are communities; an isolated vertex
    * joins the community of every non-isolated neighbor with w ≥ τ2.
    */
  def extract(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
              memLen: Int): SparkCover = {
    val w = edgeWeights(labels, edges, memLen).persist(StorageLevel.MEMORY_AND_DISK)
    val n = labels.count()
    val tau2 = chooseTau2(w)
    val tau1 = chooseTau1(w, tau2, n)

    val comp = ConnectedComponents.spark(w.collect { case ((u, v), x) if x >= tau1 => (u, v) })
      .persist(StorageLevel.MEMORY_AND_DISK)
    val sizes = comp.map { case (_, c) => (c, 1) }.reduceByKey(_ + _)
    val member = comp
      .map { case (v, c) => (c, v) }
      .join(sizes.filter(_._2 >= 2))
      .map { case (c, (v, _)) => (v, c) }
      .persist(StorageLevel.MEMORY_AND_DISK)

    // Isolated vertex u attaches to member neighbor v's community if w >= tau2.
    val strong = w.filter(_._2 >= tau2)
      .flatMap { case ((u, v), _) => Iterator((u, v), (v, u)) } // (maybeIsolated, nbr)
    val attach = strong
      .leftOuterJoin(member) // is the left endpoint already a member?
      .collect { case (u, (v, None)) => (v, u) }
      .join(member)          // neighbor's community
      .map { case (_, (u, c)) => (u, c) }

    val assignments = member.union(attach).distinct()
    SparkCover(assignments, tau1, tau2)
  }
}
