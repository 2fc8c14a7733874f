package repro.core

import repro.graph.UnionFind
import repro.metrics.SizeEntropy

/** A label memory as its histogram: the distinct labels in ascending order
  * and how often each occurs.
  */
final class LabelCounts(val labels: Array[Long], val counts: Array[Int]) extends Serializable

/** Weighted undirected edges `(u(k), v(k), w(k))` as parallel arrays. */
final class EdgeWeights(val u: Array[Int], val v: Array[Int], val w: Array[Double]) {
  require(u.length == v.length && v.length == w.length, "edge arrays differ in length")

  def size: Int = w.length
}

/** The two kernels of rSLPA post-processing (§III-B) that the local and the
  * Spark engine both call, so they compute bit-identical weights and pick
  * the same τ1 from the same labels.
  */
object PostKernel {

  /** Histogram of one label memory: one sort, then run lengths. */
  def labelCounts(mem: Array[Long]): LabelCounts = {
    val s = mem.clone()
    java.util.Arrays.sort(s)
    var distinct = 0
    var i = 0
    while (i < s.length) { if (i == 0 || s(i) != s(i - 1)) distinct += 1; i += 1 }
    val labels = new Array[Long](distinct)
    val counts = new Array[Int](distinct)
    var d = -1
    i = 0
    while (i < s.length) {
      if (i == 0 || s(i) != s(i - 1)) { d += 1; labels(d) = s(i) }
      counts(d) += 1
      i += 1
    }
    new LabelCounts(labels, counts)
  }

  /** Σ_l a(l)·b(l), the number of equal (draw from a, draw from b) pairs:
    * one merge of the two sorted histograms.
    */
  def matches(a: LabelCounts, b: LabelCounts): Long = {
    var s = 0L
    var i = 0; var j = 0
    while (i < a.labels.length && j < b.labels.length) {
      val x = a.labels(i); val y = b.labels(j)
      if (x < y) i += 1
      else if (x > y) j += 1
      else { s += a.counts(i).toLong * b.counts(j); i += 1; j += 1 }
    }
    s
  }

  /** w_uv = P(uniform draw from L_u = uniform draw from L_v) for two
    * memories of length `memLen` (T + 1).
    */
  def weight(a: LabelCounts, b: LabelCounts, memLen: Int): Double =
    matches(a, b).toDouble / (memLen.toLong * memLen)

  /** The τ1 candidates: τ2, τ2 + s, τ2 + 2s, … up to max w, with
    * s = (max w − τ2) / 60 (at least 1e-9). The paper enumerates with a
    * fixed interval (0.001); our memories are longer (T + 1 = 201 labels),
    * which compresses all weights into a narrow band near 0, so the step
    * is 1/60 of the weight range instead. The points are accumulated
    * (τ += s): multiplying moves some of them by an ulp, which can move τ1.
    */
  private def tau1Grid(tau2: Double, maxW: Double): Array[Double] = {
    val step = math.max((maxW - tau2) / 60, 1e-9)
    val grid = Array.newBuilder[Double]
    var tau = tau2
    while (tau <= maxW + 1e-12) { grid += tau; tau += step }
    grid.result()
  }

  /** τ1 = argmax over [[tau1Grid]] of the size entropy (Eq. 1) of the
    * components with ≥ 2 vertices of the graph on `[0, n)` restricted to
    * edges with w ≥ τ1; ties go to the lowest τ. The filtered graphs are
    * nested, so one union–find pass over the edges in descending weight
    * order yields the components at every grid point, highest first.
    */
  def chooseTau1(n: Int, w: EdgeWeights, tau2: Double): Double = {
    if (w.size == 0) return tau2
    val grid = tau1Grid(tau2, w.w.max)
    val order = descendingOrder(w.w)
    val uf = new UnionFind(n)
    val bySize = new Array[Int](n + 1) // components per size
    bySize(1) = n
    val entropy = new Array[Double](grid.length)
    var e = 0
    var k = grid.length - 1
    while (k >= 0) {
      while (e < order.length && w.w(order(e)) >= grid(k)) {
        val a = w.u(order(e)); val b = w.v(order(e))
        val sa = uf.size(a); val sb = uf.size(b)
        if (uf.union(a, b)) { bySize(sa) -= 1; bySize(sb) -= 1; bySize(sa + sb) += 1 }
        e += 1
      }
      entropy(k) = SizeEntropy.ofSizeCounts(bySize, n)
      k -= 1
    }
    var best = tau2; var bestEnt = -1.0
    k = 0
    while (k < grid.length) {
      if (entropy(k) > bestEnt + 1e-12) { bestEnt = entropy(k); best = grid(k) }
      k += 1
    }
    best
  }

  /** A maximum spanning forest of `w` on `[0, n)` (Kruskal). At every
    * threshold τ its edges with weight ≥ τ connect exactly what the edges of
    * `w` with weight ≥ τ connect, so [[chooseTau1]] picks the same τ1 from
    * the forest — or from the union of the forests of any split of `w`.
    */
  def spanningForest(n: Int, w: EdgeWeights): EdgeWeights = {
    val uf = new UnionFind(n)
    val kept = descendingOrder(w.w).filter(k => uf.union(w.u(k), w.v(k)))
    new EdgeWeights(kept.map(w.u), kept.map(w.v), kept.map(w.w))
  }

  /** Indices of `w` by descending value, without boxing: each index is
    * packed under the rank of its value among the distinct values.
    */
  private def descendingOrder(w: Array[Double]): Array[Int] = {
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
