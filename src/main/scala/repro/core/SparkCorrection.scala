package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.core.SparkRSLPA.RVState

import scala.collection.mutable

/** Distributed Correction Propagation — Algorithm 2 on the keyed-RDD state
  * produced by [[SparkRSLPA]].
  *
  * One distributed step decides the re-picks: the cached state is joined
  * with the new adjacency, and every vertex whose neighborhood changed
  * builds its [[Picks.diff]] once and evaluates `NeedRepick` / `Repick` for
  * each of its T picks where its row lives. Those rows, with their new
  * neighbors and re-picks, are collected to the driver.
  *
  * The rest runs on the driver, through the [[Correction]] kernel the local
  * engine calls too: the driver loads the re-picks' old and new sources,
  * applies the re-picks, loads every row the cascade can reach (the
  * R-closure of the changed labels) in vertex-level rounds, and drains
  * once. The closure holds about η labels (small by the paper's own §IV-D
  * analysis), and each round is one narrow job per vertex-level hop instead
  * of the paper's up to T barrier rounds, each of which would pay a
  * scheduler floor at single-machine scale. The loaded rows go back in one
  * partition-preserving pass, so the full state is never shuffled.
  *
  * The final state is bit-identical to [[LocalIncremental.update]] under
  * the same `(seed, epoch)`, and so are the [[UpdateStats]]: the kernel
  * applies the same re-picks in the same order.
  */
object SparkCorrection {

  /** Apply an edit batch. `newAdj` must list the adjacency of every vertex
    * of the new graph, with the same vertex ids as `state0`, which must lie
    * in `[0, Correction.maxVertex(T)]` (checked as rows reach the driver).
    * Returns the updated state, persisted and materialized, with its
    * lineage cut.
    */
  def update(state0: RDD[(Long, RVState)], newAdj: RDD[(Long, Array[Long])],
             T: Int, seed: Long, epoch: Long,
             numPartitions: Int = 0): (RDD[(Long, RVState)], UpdateStats) = {
    val sc = state0.sparkContext
    val parts = if (numPartitions > 0) numPartitions else sc.defaultParallelism
    val part = new HashPartitioner(parts)
    if (state0.getStorageLevel == StorageLevel.NONE) state0.persist(StorageLevel.MEMORY_AND_DISK)
    // A no-op for states from SparkRSLPA or an earlier update, which are
    // partitioned this way; the write-back below relies on it.
    val state = state0.partitionBy(part)

    // Each changed vertex's row with its new neighbors, and its re-picks
    // (t, src, pos). Collected rows are copies, which the driver may write.
    val changed = state.join(newAdj.mapValues(_.sorted), part).flatMap { case (i, (st, nn)) =>
      if (java.util.Arrays.equals(st.nbrs, nn)) Iterator.empty
      else {
        val diff = Picks.diff(st.nbrs, nn, i)
        val repicks = (1 to T).flatMap { t =>
          diff.repick(t, st.srcs(t), seed, epoch).map { case (s, p) => (t, s, p) }
        }
        Iterator((i, st.copy(nbrs = nn), repicks))
      }
    }.collect().sortBy(_._1)

    val rows = new DriverRows(state, T)
    changed.foreach { case (i, st, _) => rows.put(i, st) }
    rows.load(changed.iterator.flatMap { case (_, st, rs) =>
      rs.iterator.flatMap { case (t, s, _) => Iterator(st.srcs(t), s) }
    })
    val c = new Correction(rows, T)
    for ((i, _, rs) <- changed; (t, s, p) <- rs) c.repick(i, t, s, p)

    // Load the R-closure of the changed labels. A label is left for the
    // next round when its row is not loaded yet, and positions rise along
    // R, so round r starts at positions above r and T rounds suffice.
    var next = c.changed.toList
    val seen = mutable.HashSet.from(next)
    var round = 0
    while (next.nonEmpty) {
      if (round == T)
        throw new IllegalStateException(s"R-closure still growing after $round rounds: ${next.size} labels")
      rows.load(next.iterator.map(_._1))
      var todo = next; next = Nil
      while (todo.nonEmpty) {
        val (v, p) = todo.head; todo = todo.tail
        rows.foreachReceiver(v, p) { (tar, k) =>
          if (seen.add((tar, k))) {
            if (rows.loaded.contains(tar)) todo ::= ((tar, k)) else next ::= ((tar, k))
          }
        }
      }
      round += 1
    }
    val stats = c.drain()

    // Swap the loaded rows in. `parallelize` cuts a sequence of `parts`
    // elements into one per partition, so partition p of `slices` holds the
    // rows that `part` places in partition p of the state.
    val byPart = rows.loaded.toSeq.groupBy { case (v, _) => part.getPartition(v) }
    val slices = sc.parallelize(Seq.tabulate(parts)(p => byPart.getOrElse(p, Nil).toMap), parts)
    val result = state.zipPartitions(slices, preservesPartitioning = true) { (it, slice) =>
      val swap = slice.next()
      it.map { case (i, st) => (i, swap.getOrElse(i, st)) }
    }.persist(StorageLevel.MEMORY_AND_DISK)
    result.localCheckpoint()
    result.count()
    (result, stats)
  }

  /** Rows of `state` loaded on the driver, as correction rows. */
  private final class DriverRows(state: RDD[(Long, RVState)], T: Int) extends Correction.Rows {
    val loaded = mutable.LongMap.empty[RVState]
    private val maxId = Correction.maxVertex(T)

    def put(v: Long, st: RVState): Unit = {
      require(v >= 0 && v <= maxId, s"vertex id $v is outside [0, $maxId], where label keys fit a Long")
      loaded(v) = st
    }

    /** Load the rows of `vs` not loaded yet: one narrow job. */
    def load(vs: Iterator[Long]): Unit = {
      val need = vs.filterNot(loaded.contains).toSet
      if (need.nonEmpty)
        state.filter { case (v, _) => need(v) }.collect().foreach { case (v, st) => put(v, st) }
    }

    def label(v: Long, t: Int): Long = loaded(v).labels(t)
    def setLabel(v: Long, t: Int, l: Long): Unit = loaded(v).labels(t) = l
    def pick(v: Long, t: Int): (Long, Int) = { val st = loaded(v); (st.srcs(t), st.poss(t)) }
    def setPick(v: Long, t: Int, src: Long, pos: Int): Unit = {
      val st = loaded(v); st.srcs(t) = src; st.poss(t) = pos
    }
    def addReceiver(v: Long, p: Int, tar: Long, k: Int): Unit = loaded(v).recv(p) ::= ((tar, k))
    def removeReceiver(v: Long, p: Int, tar: Long, k: Int): Unit = {
      val st = loaded(v); val rec = (tar, k)
      st.recv(p) = st.recv(p).filterNot(_ == rec)
    }
    def foreachReceiver(v: Long, p: Int)(f: (Long, Int) => Unit): Unit =
      loaded(v).recv(p).foreach { case (tar, k) => f(tar, k) }
  }
}
