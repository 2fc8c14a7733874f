package repro.core

/** Complete rSLPA propagation state for the *local* engine.
  *
  * For every vertex `i` and iteration `t`:
  *  - `labels(i)(t)` — the label picked at iteration t (`labels(i)(0) = i`);
  *  - `srcs(i)(t)` / `poss(i)(t)` — the uniformly picked neighbor and
  *    position the label was fetched from (Algorithm 1). A degree-0 vertex
  *    self-picks: `srcs(i)(t) = i`, `poss(i)(t) = 0`;
  *  - `recv(i)(p)` — the reverse records R of §IV-B: the list of `(tar, k)`
  *    pairs meaning vertex `tar` picked `l_i^p` at its iteration `k`.
  *
  * This is exactly the information Algorithm 2 (correction propagation)
  * needs to incrementally maintain the sequences under edge edits.
  */
final class RslpaState(
    val n: Int,
    val T: Int,
    val labels: Array[Array[Long]],
    val srcs: Array[Array[Int]],
    val poss: Array[Array[Int]],
    val recv: Array[Array[List[(Int, Int)]]]
) {

  /** Structural invariant check used by tests: every recorded (src, pos)
    * points inside bounds, the stored label equals the source's label at
    * that position, and `recv` mirrors `(srcs, poss)` exactly.
    */
  def checkInvariants(adj: Int => Array[Int]): Seq[String] = {
    val errs = Seq.newBuilder[String]
    for (i <- 0 until n; t <- 1 to T) {
      val s = srcs(i)(t); val p = poss(i)(t)
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
        if (!recv(s)(p).contains((i, t)))
          errs += s"recv(${s})(${p}) missing receiver ($i,$t)"
      }
    }
    for (i <- 0 until n; p <- 0 to T; (tar, k) <- recv(i)(p)) {
      if (srcs(tar)(k) != i || poss(tar)(k) != p)
        errs += s"stale recv entry ($tar,$k) at ($i,$p)"
    }
    errs.result()
  }
}
