package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.{Rng, SplitMix64}

/** Unit tests for the canonical random decisions, including empirical
  * verification of the paper's Theorems 2–5.
  */
class PicksSpec extends AnyFunSuite {

  /** [[NeighborDiff.repick]] for a single position. */
  private def repick(oldAdj: Array[Long], newAdj: Array[Long], vid: Long, t: Int,
                     curSrc: Long, seed: Long, epoch: Long): Option[(Long, Int)] =
    Picks.diff(oldAdj, newAdj, vid).repick(t, curSrc, seed, epoch)

  test("pickIdx self-picks for degree 0") {
    assert(Picks.pickIdx(0, 5L, 3, seed = 1) == (-1, 0))
  }

  test("pickIdx stays within bounds") {
    for (s <- 0 until 200) {
      val (idx, pos) = Picks.pickIdx(deg = 7, vid = 3, t = 5, seed = s)
      assert(idx >= 0 && idx < 7 && pos >= 0 && pos < 5)
    }
  }

  test("pickIdx is deterministic") {
    assert(Picks.pickIdx(4, 2, 3, 99) == Picks.pickIdx(4, 2, 3, 99))
  }

  test("pickIdx index is uniform over neighbors") {
    val counts = new Array[Int](4)
    (0 until 8000).foreach { s => counts(Picks.pickIdx(4, 1, 2, s)._1) += 1 }
    counts.foreach(c => assert(math.abs(c - 2000) < 300, s"neighbor pick biased: ${counts.toSeq}"))
  }

  test("pickIdx position is uniform over [0, t)") {
    val counts = new Array[Int](5)
    (0 until 10000).foreach { s => counts(Picks.pickIdx(3, 1, 5, s)._2) += 1 }
    counts.foreach(c => assert(math.abs(c - 2000) < 300, s"position pick biased: ${counts.toSeq}"))
  }

  test("Theorem 3: (src,pos) sampling hits each label proportional to union frequency") {
    // Neighbor memories: L_1=(1,1), L_2=(1,2), L_3=(3,2). Union frequencies:
    // label 1: 3/6, label 2: 2/6, label 3: 1/6.
    val mems = Map(10L -> Array(1L, 1L), 11L -> Array(1L, 2L), 12L -> Array(3L, 2L))
    val nbrs = Array(10L, 11L, 12L)
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    val trials = 30000
    (0 until trials).foreach { s =>
      val (idx, pos) = Picks.pickIdx(3, 7L, 2, seed = s)
      counts(mems(nbrs(idx))(pos)) += 1
    }
    assert(math.abs(counts(1L).toDouble / trials - 0.5) < 0.02)
    assert(math.abs(counts(2L).toDouble / trials - 1.0 / 3) < 0.02)
    assert(math.abs(counts(3L).toDouble / trials - 1.0 / 6) < 0.02)
  }

  test("repick: Category 1 (unchanged) keeps everything") {
    val adj = Array(1L, 2L, 3L)
    (0 until 50).foreach { s =>
      assert(repick(adj, adj, 0L, 4, curSrc = 2L, seed = s, epoch = 1).isEmpty)
    }
  }

  test("repick: Category 2 keeps picks whose source edge survives") {
    val oldAdj = Array(1L, 2L, 3L); val newAdj = Array(1L, 3L) // lost 2
    (0 until 50).foreach { s =>
      assert(repick(oldAdj, newAdj, 0L, 4, curSrc = 3L, seed = s, epoch = 1).isEmpty)
    }
  }

  test("repick: Category 2 re-picks when the source edge was deleted") {
    val oldAdj = Array(1L, 2L, 3L); val newAdj = Array(1L, 3L)
    (0 until 50).foreach { s =>
      val r = repick(oldAdj, newAdj, 0L, 4, curSrc = 2L, seed = s, epoch = 1)
      assert(r.isDefined)
      val (src, pos) = r.get
      assert(newAdj.contains(src) && pos >= 0 && pos < 4)
    }
  }

  test("repick: Category 2 re-pick source is uniform over the remaining neighbors (Theorem 4)") {
    val oldAdj = Array(1L, 2L, 3L, 4L); val newAdj = Array(1L, 3L, 4L)
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    val trials = 9000
    (0 until trials).foreach { s =>
      val Some((src, _)) = repick(oldAdj, newAdj, 0L, 3, curSrc = 2L, seed = s, epoch = 1)
      counts(src) += 1
    }
    newAdj.foreach { v =>
      assert(math.abs(counts(v).toDouble / trials - 1.0 / 3) < 0.03, s"src $v biased: $counts")
    }
  }

  test("repick: Category 3 keeps a surviving source with probability n_u/(n_u+n_a) (Theorem 5)") {
    val oldAdj = Array(1L, 2L); val newAdj = Array(1L, 2L, 3L, 4L) // n_u=2, n_a=2
    val trials = 10000
    var kept = 0
    val srcCounts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    (0 until trials).foreach { s =>
      repick(oldAdj, newAdj, 0L, 3, curSrc = 1L, seed = s, epoch = 1) match {
        case None           => kept += 1
        case Some((src, _)) => srcCounts(src) += 1
      }
    }
    assert(math.abs(kept.toDouble / trials - 0.5) < 0.03, s"keep rate ${kept.toDouble / trials}")
    // Re-picks must land on the *new* neighbors only, uniformly.
    assert(srcCounts.keySet.subsetOf(Set(3L, 4L)))
    assert(math.abs(srcCounts(3L).toDouble / (trials - kept) - 0.5) < 0.05)
  }

  test("repick: Category 3 with deleted source re-picks over all current neighbors") {
    val oldAdj = Array(1L, 2L); val newAdj = Array(2L, 3L, 4L) // 1 deleted, 3/4 added
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    val trials = 9000
    (0 until trials).foreach { s =>
      val r = repick(oldAdj, newAdj, 0L, 3, curSrc = 1L, seed = s, epoch = 1)
      assert(r.isDefined)
      counts(r.get._1) += 1
    }
    newAdj.foreach { v =>
      assert(math.abs(counts(v).toDouble / trials - 1.0 / 3) < 0.03, s"src $v biased: $counts")
    }
  }

  test("repick: previously isolated vertex re-picks from its new neighbors") {
    val r = repick(Array.empty[Long], Array(5L, 6L), 0L, 2, curSrc = 0L, seed = 3, epoch = 1)
    assert(r.isDefined && Set(5L, 6L).contains(r.get._1))
  }

  test("repick: vertex that became isolated self-picks") {
    val r = repick(Array(5L), Array.empty[Long], 0L, 2, curSrc = 5L, seed = 3, epoch = 1)
    assert(r.contains((0L, 0)))
  }

  test("repick: still-isolated vertex keeps its self-pick") {
    assert(repick(Array.empty[Long], Array.empty[Long], 0L, 2, 0L, 3, 1).isEmpty)
  }

  test("repick decisions differ across epochs") {
    val oldAdj = Array(1L, 2L, 3L); val newAdj = Array(1L, 3L)
    val d1 = (0 until 100).map(s => repick(oldAdj, newAdj, 0L, 9, 2L, s, epoch = 1))
    val d2 = (0 until 100).map(s => repick(oldAdj, newAdj, 0L, 9, 2L, s, epoch = 2))
    assert(d1 != d2)
  }

  /** The per-(vertex, t) decision as first written, from hash sets rebuilt
    * on every call: the oracle the per-vertex diff is checked against.
    */
  private def oracleRepick(oldAdj: Array[Long], newAdj: Array[Long], vid: Long, t: Int,
                           curSrc: Long, seed: Long, epoch: Long): Option[(Long, Int)] = {
    if (java.util.Arrays.equals(oldAdj, newAdj)) return None
    val oldSet = oldAdj.toSet
    val newSet = newAdj.toSet
    val added = newAdj.filterNot(oldSet)
    val rng = Rng.forVertex(seed ^ (epoch * 0x9e3779b97f4a7c15L), vid, t, Rng.SaltRepick)

    def fresh(candidates: Array[Long]): Option[(Long, Int)] =
      if (candidates.isEmpty) Some((vid, 0))
      else Some((candidates(rng.nextInt(candidates.length)), rng.nextInt(t)))

    if (curSrc == vid && oldAdj.isEmpty) {
      if (newAdj.isEmpty) None else fresh(newAdj)
    } else if (!newSet.contains(curSrc)) {
      fresh(newAdj)
    } else if (added.isEmpty) {
      None
    } else {
      val nU = newAdj.count(oldSet)
      if (rng.nextDouble() < nU.toDouble / (nU + added.length)) None
      else fresh(added)
    }
  }

  /** Sorted distinct subset of `pool`, each element kept w.p. `keep`. */
  private def subset(pool: Seq[Long], keep: Double, rng: SplitMix64): Array[Long] =
    pool.filter(_ => rng.nextDouble() < keep).toArray

  test("diff kernel makes the oracle's decision for random adjacency pairs") {
    val vid = 50L
    val pool = (0L until 40L).filter(_ != vid)
    // (kind, oldAdj, newAdj): every way a neighborhood can change.
    def cases(rng: SplitMix64): Seq[(String, Array[Long], Array[Long])] = {
      val a = subset(pool, 0.5, rng)
      val lost = a.filter(_ => rng.nextDouble() < 0.4)
      val gained = subset(pool.filterNot(a.contains), 0.3, rng)
      Seq(
        ("empty old", Array.empty[Long], a),
        ("empty new", a, Array.empty[Long]),
        ("only losses", a, a.filterNot(lost.contains)),
        ("only gains", a, (a ++ gained).sorted),
        ("losses and gains", a, (a.filterNot(lost.contains) ++ gained).sorted),
        ("unchanged", a, a.clone())
      )
    }
    val kinds = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for (s <- 0 until 300; (kind, oldAdj, newAdj) <- cases(Rng.forItem(s, 0L, Rng.SaltGen))) {
      val diff = Picks.diff(oldAdj, newAdj, vid)
      // Sources: every old neighbor (deleted or kept) and the self-pick.
      for (curSrc <- oldAdj :+ vid; t <- 1 to 6; epoch <- 1L to 2L) {
        val want = oracleRepick(oldAdj, newAdj, vid, t, curSrc, seed = s, epoch)
        assert(diff.repick(t, curSrc, s, epoch) == want,
          s"$kind: old=${oldAdj.toSeq} new=${newAdj.toSeq} t=$t src=$curSrc")
        assert(repick(oldAdj, newAdj, vid, t, curSrc, s, epoch) == want)
        kinds(kind) += 1
        if (curSrc == vid) kinds("curSrc == vid") += 1
        else if (!newAdj.contains(curSrc)) kinds("source deleted") += 1
      }
    }
    for (k <- Seq("empty old", "empty new", "only losses", "only gains", "losses and gains", "unchanged",
                  "source deleted", "curSrc == vid"))
      assert(kinds(k) > 0, s"no case of kind '$k': $kinds")
  }
}
