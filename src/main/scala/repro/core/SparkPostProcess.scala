package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.graph.ConnectedComponents

/** Distributed rSLPA post-processing (§III-B): edge similarity weights,
  * threshold selection (Eqs. 1–2) and community extraction via connected
  * components with weight filtering — "we slightly change the existing
  * algorithm of finding connected components by adding filtering on edge
  * weights" (§V-B2): the τ1 filter is applied inline, never materializing
  * the filtered graph, and [[ConnectedComponents.spark]] labels its
  * components in one Kruskal-filtering pass. Weights and the τ1 search
  * call the same kernels as the local engine ([[PostKernel]]), so both
  * engines choose bit-identical thresholds from the same labels.
  */
object SparkPostProcess {

  /** Extraction result: overlapping assignments `(vertex, communityId)`
    * plus the chosen thresholds.
    */
  final case class SparkCover(assignments: RDD[(Long, Long)], tau1: Double, tau2: Double)

  /** w_uv = P(uniform draw from L_u = uniform draw from L_v) for every
    * canonical (u < v) edge. `memLen` is the memory length (T + 1). Each
    * memory is shipped as its sorted histogram ([[PostKernel.labelCounts]]).
    */
  def edgeWeights(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
                  memLen: Int): RDD[((Long, Long), Double)] = {
    val counts = labels.mapValues(PostKernel.labelCounts)
    edges
      .join(counts)
      .map { case (u, (v, cu)) => (v, (u, cu)) }
      .join(counts)
      .map { case (v, ((u, cu), cv)) => ((u, v), PostKernel.weight(cu, cv, memLen)) }
  }

  /** τ2 = min over non-isolated vertices of the max incident weight (Eq. 2). */
  def chooseTau2(w: RDD[((Long, Long), Double)]): Double = {
    val best = w.flatMap { case ((u, v), x) => Iterator((u, x), (v, x)) }
      .reduceByKey(math.max)
      .values
    if (best.isEmpty()) 0.0 else best.min()
  }

  private def componentsAt(w: RDD[((Long, Long), Double)], tau1: Double): RDD[(Long, Long)] =
    ConnectedComponents.spark(w.collect { case ((u, v), x) if x >= tau1 => (u, v) })

  /** τ1 = argmax of size entropy over the local engine's grid in [τ2, max w]
    * (Eq. 1), on vertices `[0, n)`. One job: every partition of `w` (persist
    * it) sends the driver its maximum spanning forest, at most n − 1 edges,
    * which connects at every threshold what the partition's edges connect
    * (Kruskal filtering, Lattanzi et al., SPAA 2011); the driver then runs
    * [[PostKernel.chooseTau1]] over the union of the forests. Every vertex
    * id in `w` must lie in `[0, n)`; the job fails otherwise.
    */
  def chooseTau1(w: RDD[((Long, Long), Double)], tau2: Double, n: Long): Double = {
    require(n <= Int.MaxValue, s"chooseTau1 needs n <= Int.MaxValue vertices, got $n")
    val nv = n.toInt
    val forests = w.mapPartitions { it =>
      val es = it.toArray
      val f = PostKernel.spanningForest(nv,
        new EdgeWeights(es.map(e => denseId(e._1._1, nv)), es.map(e => denseId(e._1._2, nv)), es.map(_._2)))
      Iterator((f.u, f.v, f.w))
    }.collect()
    PostKernel.chooseTau1(nv,
      new EdgeWeights(forests.flatMap(_._1), forests.flatMap(_._2), forests.flatMap(_._3)), tau2)
  }

  private def denseId(id: Long, n: Int): Int = {
    require(id >= 0 && id < n, s"vertex id $id lies outside [0, $n): ids must be dense")
    id.toInt
  }

  /** Full extraction: components at τ1 are communities; an isolated vertex
    * joins the community of every non-isolated neighbor with w ≥ τ2.
    * Vertex ids must be dense: `labels` holds ids `0 until n` and `edges`
    * uses only those ids ([[chooseTau1]] fails otherwise).
    */
  def extract(labels: RDD[(Long, Array[Long])], edges: RDD[(Long, Long)],
              memLen: Int): SparkCover = {
    val w = edgeWeights(labels, edges, memLen).persist(StorageLevel.MEMORY_AND_DISK)
    if (w.count() == 0)
      return SparkCover(labels.sparkContext.emptyRDD[(Long, Long)], 0.0, 0.0)
    val n = labels.count()
    val tau2 = chooseTau2(w)
    val tau1 = chooseTau1(w, tau2, n)

    val comp = componentsAt(w, tau1).persist(StorageLevel.MEMORY_AND_DISK)
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
