package repro.core

import repro.graph.LocalGraph

import scala.collection.mutable

/** Outcome of one incremental update: counts used by the complexity
  * benches (η of §IV-D).
  *
  * @param repicked  labels whose (src, pos) was re-picked (Categories 2/3)
  * @param corrected labels whose final value differs from their value
  *                  before the batch, each (vertex, pos) once — the paper's η
  * @param touched   labels re-picked or written by the correction cascade
  * @param rounds    highest position the correction cascade reached
  */
final case class UpdateStats(repicked: Long, corrected: Long, touched: Long, rounds: Int)

/** Incremental updating of an rSLPA propagation state after a batch of
  * edge insertions/deletions (Algorithm 2, "Correction Propagation").
  *
  * Phase 1 — adjacent edge changes (§IV-A): every vertex whose
  * neighborhood changed gets one [[Picks.diff]] of its old and new
  * adjacency, which then decides each of its T picks, keeping every pick
  * that can still be regarded as uniform on the new graph:
  *  - Category 1 (unchanged neighborhood): keep everything;
  *  - Category 2 (only lost neighbors): re-pick only picks whose source
  *    edge was deleted (Theorem 4);
  *  - Category 3 (gained neighbors): if the source survives, keep it with
  *    probability n_u / (n_u + n_a), otherwise re-pick uniformly among the
  *    *new* neighbors (Theorem 5); if the source was deleted, re-pick
  *    uniformly among all current neighbors.
  *
  * Phase 2 — subsequent updates (§IV-B): changed label values are pushed
  * along the reverse receiver records R. A receiver's position is always
  * greater than its source's, so changed labels wait in one bucket per
  * position and the buckets are drained in ascending order: a label's
  * bucket is drained only after every label it can read from has settled,
  * which reaches the unique fixpoint (l_i^t = l_{src}^{pos} for all t) with
  * each changed label pushed to its receivers once.
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
    val n = st.n; val T = st.T
    // Labels are keyed i * (T + 1) + t.
    def key(i: Int, t: Int): Long = i.toLong * (T + 1) + t
    val touched = new PackedBitSet(n.toLong * (T + 1))
    // Value before the batch of every label changed so far; a label enters
    // its position's bucket when it first changes.
    val before = mutable.LongMap.empty[Long]
    val buckets = Array.fill(T + 1)(new mutable.ArrayBuilder.ofInt)
    var repicked = 0L

    def setLabel(i: Int, t: Int, l: Long): Unit = {
      val k = key(i, t)
      touched += k
      val old = st.labels(i)(t)
      if (old != l) {
        if (!before.contains(k)) { before(k) = old; buckets(t) += i }
        st.labels(i)(t) = l
      }
    }

    // Phase 1: adjacent edge changes.
    var i = 0
    while (i < n) {
      val oldAdj = oldG.adj(i); val newAdj = newG.adj(i)
      if (!java.util.Arrays.equals(oldAdj, newAdj)) {
        val diff = Picks.diff(oldAdj.map(_.toLong), newAdj.map(_.toLong), i.toLong)
        var t = 1
        while (t <= T) {
          diff.repick(t, st.srcs(i)(t), seed, epoch) match {
            case Some((s, pos2)) =>
              val src2 = s.toInt
              val src0 = st.srcs(i)(t); val pos0 = st.poss(i)(t)
              val rec = (i, t)
              st.recv(src0)(pos0) = st.recv(src0)(pos0).filterNot(_ == rec)
              st.srcs(i)(t) = src2; st.poss(i)(t) = pos2
              st.recv(src2)(pos2) ::= rec
              repicked += 1
              setLabel(i, t, st.labels(src2)(pos2))
            case None => ()
          }
          t += 1
        }
      }
      i += 1
    }

    // Phase 2: correction propagation along R, one position at a time.
    var rounds = 0
    var p = 1
    while (p <= T) {
      val js = buckets(p).result()
      for (j <- js) {
        val l = st.labels(j)(p)
        st.recv(j)(p).foreach { case (tar, k) => setLabel(tar, k, l) }
      }
      if (js.nonEmpty) rounds = p
      p += 1
    }
    val corrected = before.count { case (k, l) => st.labels((k / (T + 1)).toInt)((k % (T + 1)).toInt) != l }
    UpdateStats(repicked, corrected.toLong, touched.size, rounds)
  }

  /** A set of labels keyed as in `update`, one bit each. */
  private final class PackedBitSet(capacity: Long) {
    private val words = new Array[Long](((capacity + 63) >>> 6).toInt)
    private var count = 0L

    def +=(k: Long): Unit = {
      val w = (k >>> 6).toInt; val bit = 1L << (k & 63)
      if ((words(w) & bit) == 0) { words(w) |= bit; count += 1 }
    }

    def size: Long = count
  }
}
