package repro.core

import repro.graph.{EdgeWeights, LocalGraph}

/** rSLPA post-processing (§III-B of the paper), local engine.
  *
  * Uniform-picking flattens the label distributions, so a community agrees
  * on a *distribution* of labels rather than a single winner. Communities
  * are therefore extracted by:
  *  1. weighting every edge by w_ij = P(l_i = l_j) — the probability a
  *     uniform draw from L_i equals a uniform draw from L_j: L_i's labels
  *     are scattered into a dense count array once, and each neighbour's
  *     memory sums its labels' counts there ([[PostKernel.Scatter]]);
  *  2. τ2 = min_i max_j w_ij (Eq. 2, "no isolated vertex" principle);
  *  3. τ1 ∈ [τ2, max w] maximizing the size entropy of the connected
  *     components of the τ1-filtered graph (Eq. 1, "maximize information"),
  *     over a 60-step grid in one union–find sweep ([[PostKernel.chooseTau1]]);
  *  4. communities = components with ≥ 2 vertices at τ1, one union–find
  *     pass ([[PostKernel.members]]); an isolated vertex joins the
  *     community of every non-isolated neighbor with w ≥ τ2 — the
  *     mechanism that produces *overlap* ([[PostKernel.cover]]).
  * The Spark engine ([[SparkPostProcess]]) calls the same kernels.
  */
object PostProcess {

  /** Weight of every edge of `g`, in the order of `g.edges` (u < v). Labels
    * must be vertex ids of `g`: each vertex's memory is scattered into one
    * [[PostKernel.Scatter]] over `[0, n)` and matched against the memories
    * of its higher neighbours.
    */
  def edgeWeights(g: LocalGraph, labels: Array[Array[Long]]): EdgeWeights = {
    for (u <- labels.indices; l <- labels(u))
      if (l < 0 || l >= g.n)
        throw new IllegalArgumentException(s"edgeWeights: vertex $u holds label $l outside [0, ${g.n})")
    val memLen = labels.headOption.map(_.length).getOrElse(1)
    val denom = (memLen.toLong * memLen).toDouble
    val m = g.numEdges.toInt
    val us = new Array[Int](m); val vs = new Array[Int](m); val ws = new Array[Double](m)
    val scatter = new PostKernel.Scatter(g.n)
    var k = 0
    var u = 0
    while (u < g.n) {
      val nbrs = g.adj(u)
      scatter.load(labels(u))
      var j = 0
      while (j < nbrs.length) {
        val v = nbrs(j)
        if (v > u) { us(k) = u; vs(k) = v; ws(k) = scatter.matches(labels(v)) / denom; k += 1 }
        j += 1
      }
      scatter.unload(labels(u))
      u += 1
    }
    new EdgeWeights(us, vs, ws)
  }

  /** τ2 = min over non-isolated vertices of the max incident weight (Eq. 2). */
  def chooseTau2(g: LocalGraph, w: EdgeWeights): Double = PostKernel.tau2(g.n, w)

  /** τ1 = argmax of size entropy in [τ2, max w] (Eq. 1), see [[PostKernel.chooseTau1]]. */
  def chooseTau1(g: LocalGraph, w: EdgeWeights, tau2: Double): Double =
    PostKernel.chooseTau1(g.n, w, tau2)

  /** Step 4 for *given* thresholds: [[PostKernel.cover]] at τ2 of [[PostKernel.members]] at τ1. */
  def extractAt(g: LocalGraph, w: EdgeWeights, tau1: Double, tau2: Double): Vector[Set[Int]] =
    PostKernel.cover(PostKernel.members(g.n, w, tau1), w, tau2)

  /** The complete §III-B pipeline on a finished label propagation. */
  def extract(g: LocalGraph, labels: Array[Array[Long]]): Vector[Set[Int]] = {
    val w = edgeWeights(g, labels)
    val tau2 = chooseTau2(g, w)
    val tau1 = chooseTau1(g, w, tau2)
    extractAt(g, w, tau1, tau2)
  }
}
