package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

/** Distributed rSLPA label propagation — Algorithm 1 as keyed-RDD message
  * passing.
  *
  * Per iteration `t` each vertex emits ONE request `(src, pos)` (uniformly
  * picked), the source answers with `l_src^pos`, and the requester appends
  * the answer — O(|V|) messages per iteration versus SLPA's O(|E|). The
  * request/serve/append cycle is two shuffles of O(|V|) messages; the
  * vertex state itself is hash-partitioned once and never moves.
  *
  * Because every pick is a deterministic function of `(seed, vertex, t)`
  * ([[Picks.pickIdx]]), the `(src, pos)` records and the reverse receiver
  * records R of §IV-B are reconstructed in a single post-pass instead of
  * being carried through every iteration. The resulting [[RVState]] is
  * bit-identical to [[LocalRSLPA.propagate]] under the same seed — tested.
  */
object SparkRSLPA {

  /** Distributed per-vertex state: sorted neighbors, label memory, the
    * `(src, pos)` of every pick, and the reverse receiver records
    * (`recv(p)` = list of `(tar, k)` that picked `l^p` at iteration `k`).
    */
  final case class RVState(nbrs: Array[Long], labels: Array[Long],
                           srcs: Array[Long], poss: Array[Int],
                           recv: Array[List[(Long, Int)]]) extends Serializable

  /** Lean in-flight state: the per-iteration loop only needs neighbors and
    * the label memory.
    */
  final case class PropState(nbrs: Array[Long], labels: Array[Long]) extends Serializable

  private def pickFor(nbrs: Array[Long], i: Long, t: Int, seed: Long): (Long, Int) = {
    val (idx, pos) = Picks.pickIdx(nbrs.length, i, t, seed)
    (if (idx < 0) i else nbrs(idx), pos)
  }

  /** Label memories only (lengths T+1) — the propagation loop. */
  def propagateLabels(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
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
