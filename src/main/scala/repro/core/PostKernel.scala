package repro.core

import repro.graph.{EdgeWeights, SpanningForest, UnionFind}
import repro.metrics.SizeEntropy

/** The kernels of rSLPA post-processing (§III-B) that the local and the
  * Spark engine both call, so they compute bit-identical weights and pick
  * the same τ2, τ1 and cover from the same labels, or from a maximum
  * spanning forest of the weights ([[SpanningForest]]).
  */
object PostKernel {

  /** Label counts of one memory at a time over dense label indices
    * `[0, n)`: [[load]] one memory, take [[matches]] against any number of
    * others, then [[unload]] it before loading the next. Labels are not
    * checked against `[0, n)` here; callers check them once, outside the
    * per-edge loop.
    */
  final class Scatter(n: Int) {
    private val c = new Array[Int](n)

    /** Adds 1 at each label of `mem`. */
    def load(mem: Array[Long]): Unit = {
      var i = 0
      while (i < mem.length) { c(mem(i).toInt) += 1; i += 1 }
    }

    /** Σ over the labels of `mem` of the loaded count, which equals
      * Σ_l c_loaded(l)·c_mem(l): the number of equal (draw, draw) pairs.
      */
    def matches(mem: Array[Long]): Long = {
      var s = 0L
      var i = 0
      while (i < mem.length) { s += c(mem(i).toInt); i += 1 }
      s
    }

    /** Zeroes the slots that `load(mem)` set. */
    def unload(mem: Array[Long]): Unit = {
      var i = 0
      while (i < mem.length) { c(mem(i).toInt) = 0; i += 1 }
    }
  }

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

  /** Each vertex's component root among the edges of `w` on `[0, n)` with
    * w ≥ τ1, or −1 for a vertex alone in its component.
    */
  def members(n: Int, w: EdgeWeights, tau1: Double): Array[Int] = {
    val uf = new UnionFind(n)
    var k = 0
    while (k < w.size) { if (w.w(k) >= tau1) uf.union(w.u(k), w.v(k)); k += 1 }
    Array.tabulate(n)(v => if (uf.size(v) >= 2) uf.find(v) else -1)
  }

  /** The cover of `member` ([[members]]): one community per root, plus
    * every non-member that an edge of `w` with w ≥ τ2 joins to a member,
    * added to that member's community — the overlap.
    */
  def cover(member: Array[Int], w: EdgeWeights, tau2: Double): Vector[Set[Int]] = {
    val comms = new Array[scala.collection.mutable.Builder[Int, Set[Int]]](member.length) // by root
    def add(r: Int, v: Int): Unit = { if (comms(r) == null) comms(r) = Set.newBuilder[Int]; comms(r) += v }
    var v = 0
    while (v < member.length) { if (member(v) >= 0) add(member(v), v); v += 1 }
    var k = 0
    while (k < w.size) {
      val a = w.u(k); val b = w.v(k)
      if (w.w(k) >= tau2 && (member(a) < 0) != (member(b) < 0))
        if (member(a) < 0) add(member(b), a) else add(member(a), b)
      k += 1
    }
    comms.iterator.filter(_ != null).map(_.result()).toVector
  }
}
