package repro.core

import repro.graph.{EdgeWeights, SpanningForest, UnionFind}
import repro.metrics.SizeEntropy

/** A label memory as its histogram: the distinct labels in ascending order
  * and how often each occurs.
  */
final class LabelCounts(val labels: Array[Long], val counts: Array[Int]) extends Serializable

/** The kernels of rSLPA post-processing (§III-B) that the local and the
  * Spark engine both call, so they compute bit-identical weights and pick
  * the same τ2 and τ1 from the same labels, or from a maximum spanning
  * forest of the weights ([[SpanningForest]]).
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

  /** τ2 = min over non-isolated vertices of the max incident weight (Eq. 2)
    * of `w` on `[0, n)`; 0 without edges.
    */
  def tau2(n: Int, w: EdgeWeights): Double = {
    val best = Array.fill(n)(Double.NaN)
    for (k <- 0 until w.size) {
      val u = w.u(k); val v = w.v(k); val x = w.w(k)
      if (best(u).isNaN || x > best(u)) best(u) = x
      if (best(v).isNaN || x > best(v)) best(v) = x
    }
    val vals = best.filterNot(_.isNaN)
    if (vals.isEmpty) 0.0 else vals.min
  }

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
    val order = SpanningForest.descendingOrder(w.w)
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
}
