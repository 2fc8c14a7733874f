package repro.core

import scala.collection.mutable

/** Outcome of one incremental update, reported alike by both engines:
  * counts used by the complexity benches (η of §IV-D).
  *
  * @param repicked  labels whose (src, pos) was re-picked (Categories 2/3)
  * @param corrected labels whose final value differs from their value
  *                  before the batch, each (vertex, pos) once — the paper's η
  * @param touched   labels re-picked or written by the correction cascade
  * @param rounds    highest position the correction cascade reached
  */
final case class UpdateStats(repicked: Long, corrected: Long, touched: Long, rounds: Int)

/** Algorithm 2's apply-and-cascade step, the one implementation both
  * engines call: [[LocalIncremental]] over its whole state,
  * [[SparkCorrection]] over the rows its driver has loaded.
  *
  * [[repick]] applies one re-pick that [[NeighborDiff.repick]] decided: it
  * moves the receiver record in R from the old source to the new one (the
  * maintenance of §IV-B), sets the pick and reads the new label. [[drain]]
  * then pushes changed labels along R (§IV-B). A receiver's position always
  * exceeds its source's, so changed labels wait in one bucket per position
  * and the buckets are drained in ascending order: a label's bucket is
  * drained only after every label it can read from has settled, which
  * reaches the unique fixpoint `l_i^t = l_{src}^{pos}` with each changed
  * label pushed to its receivers once, and each label written by the
  * cascade at most once.
  *
  * Every row the re-picks and the drain read or write must be present in
  * `rows`. Labels are keyed `v * (T + 1) + t`, so vertex ids must lie in
  * `[0, maxVertex(T)]`.
  */
final class Correction(rows: Correction.Rows, T: Int) {
  private def key(v: Long, t: Int): Long = v * (T + 1) + t

  // Value before the batch of every label changed so far; a label enters
  // its position's bucket when it first changes.
  private val before = mutable.LongMap.empty[Long]
  private val buckets = Array.fill(T + 1)(new mutable.ArrayBuilder.ofLong)
  // Key of the new source of every re-pick so far.
  private val repickedFrom = new mutable.ArrayBuilder.ofLong
  private var written = 0L // cascade writes

  private def set(v: Long, t: Int, l: Long): Unit = {
    val old = rows.label(v, t)
    if (old != l) {
      val k = key(v, t)
      if (!before.contains(k)) { before(k) = old; buckets(t) += v }
      rows.setLabel(v, t, l)
    }
  }

  /** Re-point label (i, t) to (src, pos). */
  def repick(i: Long, t: Int, src: Long, pos: Int): Unit = {
    val (src0, pos0) = rows.pick(i, t)
    rows.removeReceiver(src0, pos0, i, t)
    rows.setPick(i, t, src, pos)
    rows.addReceiver(src, pos, i, t)
    repickedFrom += key(src, pos)
    set(i, t, rows.label(src, pos))
  }

  /** The labels changed so far, as (vertex, position). */
  def changed: Iterator[(Long, Int)] = before.keysIterator.map(k => (k / (T + 1), (k % (T + 1)).toInt))

  /** Push every changed label to its receivers, one position at a time,
    * and count the update.
    */
  def drain(): UpdateStats = {
    var rounds = 0
    var p = 1
    while (p <= T) {
      val js = buckets(p).result()
      for (j <- js) {
        val l = rows.label(j, p)
        rows.foreachReceiver(j, p) { (tar, k) => written += 1; set(tar, k, l) }
      }
      if (js.nonEmpty) rounds = p
      p += 1
    }
    val corrected = before.count { case (k, l) => rows.label(k / (T + 1), (k % (T + 1)).toInt) != l }
    // A re-picked label is written again exactly when its new source changed.
    val from = repickedFrom.result()
    UpdateStats(from.length, corrected, from.length + written - from.count(before.contains), rounds)
  }
}

object Correction {

  /** The largest vertex id whose label keys fit a Long at `T` iterations. */
  def maxVertex(T: Int): Long = (Long.MaxValue - T) / (T + 1)

  /** The state rows a correction reads and writes: labels, picks and the
    * receiver records R, addressed by vertex and position.
    */
  trait Rows {
    def label(v: Long, t: Int): Long
    def setLabel(v: Long, t: Int, l: Long): Unit
    def pick(v: Long, t: Int): (Long, Int)
    def setPick(v: Long, t: Int, src: Long, pos: Int): Unit
    def addReceiver(v: Long, p: Int, tar: Long, k: Int): Unit
    def removeReceiver(v: Long, p: Int, tar: Long, k: Int): Unit
    def foreachReceiver(v: Long, p: Int)(f: (Long, Int) => Unit): Unit
  }
}
