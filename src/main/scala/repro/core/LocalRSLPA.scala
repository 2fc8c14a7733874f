package repro.core

import repro.graph.LocalGraph

/** Reference implementation of rSLPA's randomized label propagation
  * (Algorithm 1) on a [[LocalGraph]].
  *
  * Per iteration `t`, every vertex uniformly picks a neighbor `src` and a
  * position `pos < t`, and appends `l_src^pos` to its own memory. By
  * Theorems 2/3 this samples each label with probability proportional to
  * its frequency in the union of the neighbors' memories — the "smoothed"
  * replacement for SLPA's plurality vote. Only one label per *vertex* is
  * fetched per iteration (vs one per *edge* in SLPA), the paper's
  * O(|V|)-per-iteration communication argument.
  *
  * The `(src, pos)` picks and the reverse receiver records `R` are kept in
  * the returned [[RslpaState]] — the bookkeeping Algorithm 2 needs.
  */
object LocalRSLPA {

  /** The deterministic pick for vertex `i` at iteration `t` (delegates to
    * [[Picks.pickIdx]], shared with the Spark engine so both produce
    * identical sequences). Degree-0 vertices self-pick their initial label.
    */
  def pick(adj: Array[Int], i: Int, t: Int, seed: Long): (Int, Int) = {
    val (idx, pos) = Picks.pickIdx(adj.length, i.toLong, t, seed)
    if (idx < 0) (i, 0) else (adj(idx), pos)
  }

  /** Run `T` iterations; returns the full propagation state, whose
    * receiver records R the [[RslpaState]] constructor threads from the
    * picks.
    */
  def propagate(g: LocalGraph, T: Int, seed: Long): RslpaState = {
    val n = g.n
    RslpaState.requireKeysFit(n, T)
    val labels = Array.tabulate(n)(i => { val a = new Array[Long](T + 1); a(0) = i.toLong; a })
    val srcs = Array.fill(n)(Array.fill(T + 1)(-1))
    val poss = Array.fill(n)(Array.fill(T + 1)(-1))
    var t = 1
    while (t <= T) {
      var i = 0
      while (i < n) {
        val (src, pos) = pick(g.adj(i), i, t, seed)
        labels(i)(t) = labels(src)(pos)
        srcs(i)(t) = src
        poss(i)(t) = pos
        i += 1
      }
      t += 1
    }
    new RslpaState(n, T, labels, srcs, poss)
  }

  /** Label memories only — identical picks to [[propagate]] but without the
    * (src, pos, R) bookkeeping, 20 of the state's 28 bytes per label. Kept
    * for the quality sweeps and the benchmark's detect path, where no
    * incremental updating follows.
    */
  def propagateLabelsOnly(g: LocalGraph, T: Int, seed: Long): Array[Array[Long]] = {
    val n = g.n
    val labels = Array.tabulate(n)(i => { val a = new Array[Long](T + 1); a(0) = i.toLong; a })
    var t = 1
    while (t <= T) {
      var i = 0
      while (i < n) {
        val (src, pos) = pick(g.adj(i), i, t, seed)
        labels(i)(t) = labels(src)(pos)
        i += 1
      }
      t += 1
    }
    labels
  }

  /** Full pipeline: propagate then extract communities via the paper's
    * similarity post-processing (§III-B).
    */
  def detect(g: LocalGraph, T: Int, seed: Long): Vector[Set[Int]] =
    PostProcess.extract(g, propagateLabelsOnly(g, T, seed))
}
