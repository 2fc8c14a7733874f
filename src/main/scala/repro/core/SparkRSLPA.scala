package repro.core

import org.apache.spark.{HashPartitioner, Partitioner}
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable

/** Distributed rSLPA label propagation — Algorithm 1 on keyed RDDs.
  *
  * Every pick is a deterministic function of `(seed, vertex, t)`
  * ([[Picks.pickIdx]]) and `labels(i)(0) = i`, so `labels(i)(t)` is the
  * vertex at the end of the `(src, pos)` chain that starts at `(i, t)` —
  * the "trackable" property of §III-A. [[propagateLabels]] uses it: one
  * narrow pass computes every pick, then pointer jumping (Wyllie's list
  * ranking) resolves all chains at once. Each round every unresolved slot
  * `(i, t) → (s, p)` asks row `s` for its slot `p` and takes that slot's
  * pointer, against the previous round's table: two shuffles of at most
  * V·T records. A chain of L hops (L ≤ T, as each hop lowers `pos`) is
  * resolved after ⌈log₂ L⌉ rounds, so a run is one job per round and
  * O(V·T·rounds) shuffled records, instead of T rounds of two shuffles of
  * V records each.
  *
  * [[propagateLabelsPerIteration]] is the paper's per-iteration loop, kept
  * as the Figs. 8–9 baseline. Both give bit-identical labels.
  *
  * The `(src, pos)` records and the reverse receiver records R of §IV-B
  * are reconstructed from the same picks in one post-pass
  * ([[withRecords]]). The resulting [[RVState]] is bit-identical to
  * [[LocalRSLPA.propagate]] under the same seed — tested.
  */
object SparkRSLPA {

  /** Distributed per-vertex state: sorted neighbors, label memory, the
    * `(src, pos)` of every pick, and the reverse receiver records
    * (`recv(p)` = list of `(tar, k)` that picked `l^p` at iteration `k`).
    */
  final case class RVState(nbrs: Array[Long], labels: Array[Long],
                           srcs: Array[Long], poss: Array[Int],
                           recv: Array[List[(Long, Int)]]) extends Serializable

  /** Sorted neighbors and the label memory (length T+1). */
  final case class PropState(nbrs: Array[Long], labels: Array[Long]) extends Serializable

  /** One row of the pointer table: sorted neighbors and, per label slot
    * `t`, a pointer `(src(t), pos(t))` along the slot's chain. A slot with
    * `pos == 0` is resolved: its label is `src`.
    */
  private[core] final case class Chains(nbrs: Array[Long], src: Array[Long], pos: Array[Int])

  private def pickFor(nbrs: Array[Long], i: Long, t: Int, seed: Long): (Long, Int) = {
    val (idx, pos) = Picks.pickIdx(nbrs.length, i, t, seed)
    (if (idx < 0) i else nbrs(idx), pos)
  }

  /** Label memories (lengths T+1) by pointer jumping, hash-partitioned into
    * `parts`, persisted and with their lineage cut.
    */
  def propagateLabels(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                      parts: Int): RDD[(Long, PropState)] = {
    val part = new HashPartitioner(parts)
    val (table, _) = resolve(picks(adj, T, seed, part).persist(StorageLevel.MEMORY_AND_DISK), T)
    val labels = table.mapValues(c => PropState(c.nbrs, c.src)).persist(StorageLevel.MEMORY_AND_DISK)
    labels.localCheckpoint()
    labels.count()
    table.unpersist(blocking = false)
    labels
  }

  /** The pointer table before any jump: every slot points at its pick, and
    * slot 0 at `(i, 0)`. One narrow pass after the partitioning.
    */
  private[core] def picks(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                          part: Partitioner): RDD[(Long, Chains)] =
    adj.partitionBy(part).mapPartitions(
      _.map { case (i, ns) =>
        val nbrs = ns.sorted
        val src = new Array[Long](T + 1); src(0) = i
        val pos = new Array[Int](T + 1)
        var t = 1
        while (t <= T) {
          val (s, p) = pickFor(nbrs, i, t, seed)
          src(t) = s; pos(t) = p
          t += 1
        }
        (i, Chains(nbrs, src, pos))
      },
      preservesPartitioning = true
    )

  /** The slots of `c` still to resolve. */
  private def open(c: Chains): Iterator[Int] = c.pos.indices.iterator.filter(c.pos(_) > 0)

  private def openCount(table: RDD[(Long, Chains)]): Long =
    table.map { case (_, c) => open(c).size.toLong }.fold(0L)(_ + _)

  /** Jump a persisted, partitioned table until every slot is resolved: the
    * resolved table, persisted, and the rounds it took; each superseded
    * table is unpersisted. Throws [[IllegalStateException]] if ⌈log₂ T⌉ + 1
    * rounds leave a slot unresolved, which a table of picks never does.
    */
  private[core] def resolve(table: RDD[(Long, Chains)], T: Int): (RDD[(Long, Chains)], Int) = {
    val cap = (32 - Integer.numberOfLeadingZeros(math.max(T, 1) - 1)) + 1
    var cur = table
    var left = openCount(cur)
    var rounds = 0
    while (left > 0) {
      if (rounds == cap)
        throw new IllegalStateException(
          s"pointer jumping left $left label slots unresolved after $rounds rounds (T = $T)")
      val next = jump(cur).persist(StorageLevel.MEMORY_AND_DISK)
      left = openCount(next)
      cur.unpersist(blocking = false)
      cur = next
      rounds += 1
    }
    (cur, rounds)
  }

  /** One round: every open slot `(i, t) → (s, p)` takes row `s`'s pointer at
    * `p`, read from `table` (the previous round's). Requests carry
    * `p << 32 | t` and answers `pos << 32 | t`, so both are pairs of longs.
    */
  private[core] def jump(table: RDD[(Long, Chains)]): RDD[(Long, Chains)] = {
    val part = table.partitioner.get
    val asks = table.flatMap { case (i, c) =>
      open(c).map(t => (c.src(t), (i, (c.pos(t).toLong << 32) | t)))
    }.partitionBy(part)
    val answers = table.zipPartitions(asks) { (rows, qs) =>
      val byId = mutable.LongMap.from(rows)
      qs.map { case (s, (i, pt)) =>
        val c = byId(s)
        val p = (pt >>> 32).toInt
        (i, (c.src(p), (c.pos(p).toLong << 32) | (pt & 0xffffffffL)))
      }
    }.partitionBy(part)
    table.zipPartitions(answers, preservesPartitioning = true) { (rows, as) =>
      val next = rows.map { case (i, c) => (i, c.copy(src = c.src.clone(), pos = c.pos.clone())) }.toArray
      val byId = mutable.LongMap.from(next)
      as.foreach { case (i, (s, pt)) =>
        val c = byId(i)
        val t = pt.toInt
        c.src(t) = s
        c.pos(t) = (pt >>> 32).toInt
      }
      next.iterator
    }
  }

  /** The paper's Algorithm 1, one iteration at a time: per iteration each
    * vertex sends one request `(src, pos)`, the source answers `l_src^pos`
    * and the requester appends it — two shuffles of O(|V|) messages, T
    * rounds. The baseline of Figs. 8–9; [[propagateLabels]] gives the same
    * labels in about log₂ T rounds.
    */
  def propagateLabelsPerIteration(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                                  parts: Int): RDD[(Long, PropState)] = {
    val part = new HashPartitioner(parts)
    var state: RDD[(Long, PropState)] = adj
      .map { case (v, ns) => (v, PropState(ns.sorted, Array(v))) }
      .partitionBy(part)
      .persist(StorageLevel.MEMORY_AND_DISK)
    state.count()

    var t = 1
    while (t <= T) {
      val tt = t
      val reqs = state.map { case (i, st) =>
        val (src, pos) = pickFor(st.nbrs, i, tt, seed)
        (src, (pos, i))
      }
      val responses = state.cogroup(reqs, part).flatMap { case (_, (sts, rs)) =>
        val st = sts.head
        rs.iterator.map { case (pos, i) => (i, st.labels(pos)) }
      }
      val next = state.cogroup(responses, part).mapPartitions(
        _.map { case (i, (sts, lblG)) =>
          val st = sts.head
          (i, PropState(st.nbrs, st.labels :+ lblG.head))
        },
        preservesPartitioning = true
      ).persist(StorageLevel.MEMORY_AND_DISK)
      if (t % 10 == 0 || t == T) next.localCheckpoint()
      next.count()
      state.unpersist(blocking = false)
      state = next
      t += 1
    }
    state
  }

  /** Reconstruct `(srcs, poss)` (re-running the deterministic picks) and
    * the receiver records R (one shuffle) — the bookkeeping Algorithm 2
    * ([[SparkCorrection]]) consumes.
    */
  def withRecords(state: RDD[(Long, PropState)], T: Int, seed: Long,
                  parts: Int): RDD[(Long, RVState)] = {
    val part = new HashPartitioner(parts)
    val full = state.mapPartitions(
      _.map { case (i, st) =>
        val srcs = new Array[Long](T + 1); srcs(0) = i
        val poss = new Array[Int](T + 1)
        var t = 1
        while (t <= T) {
          val (src, pos) = pickFor(st.nbrs, i, t, seed)
          srcs(t) = src; poss(t) = pos
          t += 1
        }
        (i, RVState(st.nbrs, st.labels, srcs, poss, Array.fill(T + 1)(Nil)))
      },
      preservesPartitioning = true
    ).persist(StorageLevel.MEMORY_AND_DISK)

    val recvMsgs = full.flatMap { case (i, st) =>
      (1 to T).iterator.map(t => (st.srcs(t), (st.poss(t), i, t)))
    }
    full.cogroup(recvMsgs, part).mapPartitions(
      _.map { case (i, (sts, ms)) =>
        val st = sts.head
        val recv = st.recv.clone()
        ms.foreach { case (pos, tar, k) => recv(pos) ::= ((tar, k)) }
        (i, RVState(st.nbrs, st.labels, st.srcs, st.poss, recv))
      },
      preservesPartitioning = true
    )
  }

  /** Full propagation from scratch, with records. */
  def propagate(adj: RDD[(Long, Array[Long])], T: Int, seed: Long): RDD[(Long, RVState)] = {
    val parts = adj.sparkContext.defaultParallelism
    withRecords(propagateLabels(adj, T, seed, parts), T, seed, parts)
  }
}
