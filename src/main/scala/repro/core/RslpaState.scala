package repro.core

/** Complete rSLPA propagation state for the *local* engine.
  *
  * For every vertex `i` and iteration `t`:
  *  - `labels(i)(t)` — the label picked at iteration t (`labels(i)(0) = i`);
  *  - `srcs(i)(t)` / `poss(i)(t)` — the uniformly picked neighbor and
  *    position the label was fetched from (Algorithm 1). A degree-0 vertex
  *    self-picks: `srcs(i)(t) = i`, `poss(i)(t) = 0`.
  *
  * The reverse records R of §IV-B — for each label (s, p), the labels
  * (i, t) that picked it — are doubly linked lists threaded through the
  * label slots. Every label with t ≥ 1 has exactly one source, so it sits
  * in exactly one list, that of `(srcs(i)(t), poss(i)(t))`. A slot is named
  * by its packed key `i·(T+1)+t`, and three `Int` arrays shaped like `srcs`
  * hold the lists:
  *  - `head(s)(p)` — the first receiver of label (s, p), or −1;
  *  - `next(i)(t)` / `prev(i)(t)` — the receivers after and before (i, t)
  *    in its source's list, or −1.
  *
  * That is 12 bytes per label; adding or removing a receiver is O(1) and
  * allocates nothing. R is a function of the picks, so the constructor
  * threads it from `srcs` and `poss`, and [[addReceiver]] /
  * [[removeReceiver]] keep it in step when a pick moves. Packed keys need
  * `n·(T+1) ≤ Int.MaxValue`.
  *
  * This is exactly the information Algorithm 2 (correction propagation)
  * needs to incrementally maintain the sequences under edge edits.
  */
final class RslpaState(
    val n: Int,
    val T: Int,
    val labels: Array[Array[Long]],
    val srcs: Array[Array[Int]],
    val poss: Array[Array[Int]]
) {
  RslpaState.requireKeysFit(n, T)

  private val W = T + 1
  private[core] val head: Array[Array[Int]] = Array.fill(n)(Array.fill(W)(-1))
  private[core] val next: Array[Array[Int]] = Array.fill(n)(Array.fill(W)(-1))
  private[core] val prev: Array[Array[Int]] = Array.fill(n)(Array.fill(W)(-1))

  locally { // thread R from the picks
    var i = 0
    while (i < n) {
      var t = 1
      while (t <= T) { addReceiver(srcs(i)(t), poss(i)(t), i, t); t += 1 }
      i += 1
    }
  }

  /** Put label (i, t) first in the receivers of (s, p). */
  private[core] def addReceiver(s: Int, p: Int, i: Int, t: Int): Unit = {
    val key = i * W + t
    val h = head(s)(p)
    next(i)(t) = h
    prev(i)(t) = -1
    if (h >= 0) prev(h / W)(h % W) = key
    head(s)(p) = key
  }

  /** Take label (i, t) out of the receivers of (s, p), where it must be. */
  private[core] def removeReceiver(s: Int, p: Int, i: Int, t: Int): Unit = {
    val nx = next(i)(t); val pv = prev(i)(t)
    if (pv < 0) head(s)(p) = nx else next(pv / W)(pv % W) = nx
    if (nx >= 0) prev(nx / W)(nx % W) = pv
    next(i)(t) = -1
    prev(i)(t) = -1
  }

  /** Call `f(tar, k)` for every receiver (tar, k) of label (s, p). */
  def foreachReceiver(s: Int, p: Int)(f: (Int, Int) => Unit): Unit = {
    var key = head(s)(p)
    while (key >= 0) {
      val i = key / W; val t = key % W
      f(i, t)
      key = next(i)(t)
    }
  }

  /** The receivers of label (s, p): every (tar, k) with
    * `srcs(tar)(k) = s` and `poss(tar)(k) = p`.
    */
  def receivers(s: Int, p: Int): List[(Int, Int)] = {
    val out = List.newBuilder[(Int, Int)]
    foreachReceiver(s, p)((i, t) => out += ((i, t)))
    out.result()
  }

  /** Structural invariant check used by tests and the benchmark: every
    * recorded (src, pos) points inside bounds, the stored label equals the
    * source's label at that position, and R mirrors `(srcs, poss)` exactly:
    * walked from its head, every list holds only labels that picked its
    * label, each `prev` mirrors the `next` before it, and every label with
    * t ≥ 1 is reached exactly once.
    */
  def checkInvariants(adj: Int => Array[Int]): Seq[String] = {
    val errs = Seq.newBuilder[String]
    val reached = new java.util.BitSet(n * W)
    for (s <- 0 until n; p <- 0 to T) {
      var before = -1
      var key = head(s)(p)
      while (key >= 0) {
        val i = key / W; val t = key % W
        if (i >= n || t == 0) { errs += s"R($s,$p) holds slot $key, not a label with t >= 1"; key = -1 }
        else if (reached.get(key)) { errs += s"($i,$t) reached twice, again in R($s,$p)"; key = -1 }
        else {
          reached.set(key)
          if (srcs(i)(t) != s || poss(i)(t) != p)
            errs += s"($i,$t) picked (${srcs(i)(t)},${poss(i)(t)}) but sits in R($s,$p)"
          if (prev(i)(t) != before)
            errs += s"prev of ($i,$t) in R($s,$p) is ${prev(i)(t)}, not $before"
          before = key
          key = next(i)(t)
        }
      }
    }
    for (i <- 0 until n; t <- 1 to T) {
      val s = srcs(i)(t); val p = poss(i)(t)
      if (!reached.get(i * W + t)) errs += s"($i,$t) is in no receiver list"
      if (s < 0 || s >= n) errs += s"src out of range at ($i,$t): $s"
      else {
        if (p < 0 || p >= t && !(s == i && p == 0))
          errs += s"pos out of range at ($i,$t): $p"
        if (labels(i)(t) != labels(s)(p))
          errs += s"label mismatch at ($i,$t): ${labels(i)(t)} vs source ${labels(s)(p)}"
        if (s != i && !adj(i).contains(s))
          errs += s"src $s of ($i,$t) is not a neighbor of $i"
        if (s == i && adj(i).nonEmpty)
          errs += s"self-pick at ($i,$t) but vertex has neighbors"
      }
    }
    errs.result()
  }
}

object RslpaState {

  /** Labels are keyed `i·(T+1)+t` in an `Int`. */
  def requireKeysFit(n: Int, T: Int): Unit =
    require(n.toLong * (T + 1) <= Int.MaxValue,
      s"$n vertices at T = $T give ${n.toLong * (T + 1)} labels; label keys must fit an Int (at most ${Int.MaxValue})")
}
