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
  * the "trackable" property of §III-A. Propagation is therefore one pick
  * table and one round kernel: [[picks]] writes every slot's pick as a
  * pointer in one narrow pass, and each [[jump]] round lets some open slots
  * `(i, t) → (s, p)` ask row `s` for its slot `p` and take that slot's
  * pointer, against the previous round's table (two shuffles). The two
  * entry points differ only in the [[Schedule]] of those rounds:
  *  - [[propagateLabels]], pointer jumping (Wyllie's list ranking): every
  *    open slot each round, so a chain of L hops (L ≤ T, as each hop lowers
  *    `pos`) is resolved after ⌈log₂ L⌉ rounds of at most V·T records;
  *  - [[propagateLabelsPerIteration]], the paper's per-iteration loop and
  *    the Figs. 8–9 baseline: round r advances slot r + 1 only, whose pick
  *    reads a slot resolved in an earlier round, so each round is one
  *    iteration — at most one request and one answer per vertex, T rounds.
  * Both give bit-identical labels.
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

  /** How [[resolve]] runs [[jump]]: round `r` (from 0) advances the open
    * slots in `slots(r)`; rounds go on while a slot is open or fewer than
    * `min` have run, and a slot still open after `cap` rounds throws.
    */
  private[core] final case class Schedule(name: String, slots: Int => Range, min: Int, cap: Int)

  /** Every open slot each round, at most ⌈log₂ T⌉ + 1 rounds. */
  private[core] def jumping(T: Int): Schedule = {
    val ceilLog2 = 32 - Integer.numberOfLeadingZeros(math.max(T, 1) - 1)
    Schedule("pointer jumping", _ => 1 to T, 0, ceilLog2 + 1)
  }

  /** Slot r + 1 in round r, exactly T rounds. */
  private[core] def perIteration(T: Int): Schedule =
    Schedule("per-iteration", r => r + 1 to r + 1, T, T)

  /** Label memories (lengths T+1) by pointer jumping, hash-partitioned into
    * `parts`, persisted and with their lineage cut.
    */
  def propagateLabels(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                      parts: Int): RDD[(Long, PropState)] =
    labelsOf(resolve(picks(adj, T, seed, new HashPartitioner(parts)), T, jumping(T))._1)

  /** The paper's Algorithm 1, one iteration per round: in round r each
    * vertex asks row `src` of its pick at r + 1 for `l_src^pos` (no request
    * when `pos` = 0) and writes the answer into its slot r + 1 — two
    * shuffles of at most |V| messages, T rounds. The baseline of Figs. 8–9;
    * same result as [[propagateLabels]].
    */
  def propagateLabelsPerIteration(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                                  parts: Int): RDD[(Long, PropState)] =
    labelsOf(resolve(picks(adj, T, seed, new HashPartitioner(parts)), T, perIteration(T))._1)

  /** The labels of a resolved table, persisted and with their lineage cut;
    * the table is unpersisted.
    */
  private def labelsOf(table: RDD[(Long, Chains)]): RDD[(Long, PropState)] = {
    val labels = table.mapValues(c => PropState(c.nbrs, c.src)).persist(StorageLevel.MEMORY_AND_DISK)
    labels.localCheckpoint()
    labels.count()
    table.unpersist(blocking = false)
    labels
  }

  /** Row `i`'s pointers before any jump: slot `t` points at its pick, and
    * slot 0 at `(i, 0)`. `nbrs` is sorted.
    */
  private def pickRow(i: Long, nbrs: Array[Long], T: Int, seed: Long): Chains = {
    val src = new Array[Long](T + 1); src(0) = i
    val pos = new Array[Int](T + 1)
    var t = 1
    while (t <= T) {
      val (idx, p) = Picks.pickIdx(nbrs.length, i, t, seed)
      src(t) = if (idx < 0) i else nbrs(idx); pos(t) = p
      t += 1
    }
    Chains(nbrs, src, pos)
  }

  /** The pointer table before any jump, one narrow pass after the
    * partitioning.
    */
  private[core] def picks(adj: RDD[(Long, Array[Long])], T: Int, seed: Long,
                          part: Partitioner): RDD[(Long, Chains)] =
    adj.partitionBy(part).mapPartitions(
      _.map { case (i, ns) => (i, pickRow(i, ns.sorted, T, seed)) },
      preservesPartitioning = true
    )

  private def openCount(table: RDD[(Long, Chains)]): Long =
    table.map { case (_, c) => c.pos.count(_ > 0).toLong }.fold(0L)(_ + _)

  /** Jump a partitioned table under `schedule` until every slot is
    * resolved: the resolved table, persisted, and the rounds it took. Each
    * table is persisted, each superseded one unpersisted, and every tenth
    * round's lineage is cut. Throws [[IllegalStateException]] if `cap`
    * rounds leave a slot unresolved, which a table of picks never does.
    */
  private[core] def resolve(table: RDD[(Long, Chains)], T: Int,
                            schedule: Schedule): (RDD[(Long, Chains)], Int) = {
    var cur = table.persist(StorageLevel.MEMORY_AND_DISK)
    var left = openCount(cur)
    var rounds = 0
    while (left > 0 || rounds < schedule.min) {
      if (rounds == schedule.cap)
        throw new IllegalStateException(
          s"${schedule.name} left $left label slots unresolved after $rounds rounds (T = $T)")
      val next = jump(cur, schedule.slots(rounds)).persist(StorageLevel.MEMORY_AND_DISK)
      rounds += 1
      if (rounds % 10 == 0) next.localCheckpoint()
      left = openCount(next)
      cur.unpersist(blocking = false)
      cur = next
    }
    (cur, rounds)
  }

  /** One round: every open slot `(i, t) → (s, p)` with `t` in `slots` takes
    * row `s`'s pointer at `p`, read from `table` (the previous round's).
    * Requests carry `p << 32 | t` and answers `pos << 32 | t`, so both are
    * pairs of longs.
    */
  private[core] def jump(table: RDD[(Long, Chains)], slots: Range): RDD[(Long, Chains)] = {
    val part = table.partitioner.get
    val asks = table.flatMap { case (i, c) =>
      slots.iterator.filter(c.pos(_) > 0).map(t => (c.src(t), (i, (c.pos(t).toLong << 32) | t)))
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

  /** Reconstruct `(srcs, poss)` (re-running the deterministic picks) and
    * the receiver records R (one shuffle) — the bookkeeping Algorithm 2
    * ([[SparkCorrection]]) consumes.
    */
  def withRecords(state: RDD[(Long, PropState)], T: Int, seed: Long,
                  parts: Int): RDD[(Long, RVState)] = {
    val part = new HashPartitioner(parts)
    val full = state.mapPartitions(
      _.map { case (i, st) =>
        val c = pickRow(i, st.nbrs, T, seed)
        (i, RVState(st.nbrs, st.labels, c.src, c.pos, Array.fill(T + 1)(Nil)))
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
