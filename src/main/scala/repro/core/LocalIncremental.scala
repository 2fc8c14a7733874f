package repro.core

import repro.graph.LocalGraph

/** Incremental updating of an rSLPA propagation state after a batch of
  * edge insertions/deletions (Algorithm 2, "Correction Propagation").
  *
  * Adjacent edge changes (§IV-A): every vertex whose neighborhood changed
  * gets one [[Picks.diff]] of its old and new adjacency, which then decides
  * each of its T picks, keeping every pick that can still be regarded as
  * uniform on the new graph:
  *  - Category 1 (unchanged neighborhood): keep everything;
  *  - Category 2 (only lost neighbors): re-pick only picks whose source
  *    edge was deleted (Theorem 4);
  *  - Category 3 (gained neighbors): if the source survives, keep it with
  *    probability n_u / (n_u + n_a), otherwise re-pick uniformly among the
  *    *new* neighbors (Theorem 5); if the source was deleted, re-pick
  *    uniformly among all current neighbors.
  *
  * The re-picks, in vertex then position order, and the subsequent updates
  * (§IV-B) go through the [[Correction]] kernel that the Spark engine calls
  * too, over the whole state.
  *
  * The state is mutated in place; `seed`/`epoch` determinize the re-picks
  * (a fresh `epoch` per batch keeps successive batches independent).
  */
object LocalIncremental {

  /** Apply the edit batch: update `st` in place to the distributionally
    * correct state for `newG`.
    */
  def update(oldG: LocalGraph, newG: LocalGraph, st: RslpaState,
             seed: Long, epoch: Long): UpdateStats = {
    require(oldG.n == newG.n && st.n == newG.n, "vertex sets must match")
    val c = new Correction(new StateRows(st), st.T)
    var i = 0
    while (i < st.n) {
      val oldAdj = oldG.adj(i); val newAdj = newG.adj(i)
      if (!java.util.Arrays.equals(oldAdj, newAdj)) {
        val diff = Picks.diff(oldAdj.map(_.toLong), newAdj.map(_.toLong), i.toLong)
        var t = 1
        while (t <= st.T) {
          diff.repick(t, st.srcs(i)(t), seed, epoch) match {
            case Some((src, pos)) => c.repick(i, t, src, pos)
            case None             => ()
          }
          t += 1
        }
      }
      i += 1
    }
    c.drain()
  }

  /** The whole local state as correction rows. */
  private final class StateRows(st: RslpaState) extends Correction.Rows {
    def label(v: Long, t: Int): Long = st.labels(v.toInt)(t)
    def setLabel(v: Long, t: Int, l: Long): Unit = st.labels(v.toInt)(t) = l
    def pick(v: Long, t: Int): (Long, Int) = (st.srcs(v.toInt)(t), st.poss(v.toInt)(t))
    def setPick(v: Long, t: Int, src: Long, pos: Int): Unit = {
      st.srcs(v.toInt)(t) = src.toInt; st.poss(v.toInt)(t) = pos
    }
    def addReceiver(v: Long, p: Int, tar: Long, k: Int): Unit = st.addReceiver(v.toInt, p, tar.toInt, k)
    def removeReceiver(v: Long, p: Int, tar: Long, k: Int): Unit = st.removeReceiver(v.toInt, p, tar.toInt, k)
    def foreachReceiver(v: Long, p: Int)(f: (Long, Int) => Unit): Unit =
      st.foreachReceiver(v.toInt, p)((tar, k) => f(tar, k))
  }
}
