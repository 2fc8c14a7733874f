package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.dynamic.EditBatch
import repro.graph.{GraphGen, LocalGraph}

class LocalIncrementalSpec extends AnyFunSuite {

  /** Recompute the label DAG fixpoint from (srcs, poss) alone; the updated
    * state must equal it — i.e. correction propagation fully converged.
    */
  private def fixpointLabels(st: RslpaState): Array[Array[Long]] = {
    val out = Array.tabulate(st.n)(i => { val a = new Array[Long](st.T + 1); a(0) = i.toLong; a })
    for (t <- 1 to st.T; i <- 0 until st.n)
      out(i)(t) = out(st.srcs(i)(t))(st.poss(i)(t))
    out
  }

  private def assertConverged(g: LocalGraph, st: RslpaState): Unit = {
    val errs = st.checkInvariants(g.adj)
    assert(errs.isEmpty, errs.take(5).mkString("; "))
    val fix = fixpointLabels(st)
    for (i <- 0 until st.n; t <- 0 to st.T)
      assert(st.labels(i)(t) == fix(i)(t), s"label ($i,$t) not at fixpoint")
  }

  private lazy val g0 = GraphGen.webGraphLocal(7, 400, seed = 50)._2

  test("empty batch changes nothing") {
    val st = LocalRSLPA.propagate(g0, T = 10, seed = 1)
    val before = st.labels.map(_.toSeq).toSeq
    val stats = LocalIncremental.update(g0, g0, st, seed = 1, epoch = 1)
    assert(stats.repicked == 0 && stats.corrected == 0 && stats.touched == 0)
    assert(st.labels.map(_.toSeq).toSeq == before)
  }

  test("deletion-only batch: invariants and fixpoint hold") {
    val st = LocalRSLPA.propagate(g0, T = 12, seed = 2)
    val batch = EditBatch.uniform(g0, nInsert = 0, nDelete = 20, seed = 3)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    LocalIncremental.update(g0, g1, st, seed = 2, epoch = 1)
    assertConverged(g1, st)
  }

  test("insertion-only batch: invariants and fixpoint hold") {
    val st = LocalRSLPA.propagate(g0, T = 12, seed = 4)
    val batch = EditBatch.uniform(g0, nInsert = 20, nDelete = 0, seed = 5)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    LocalIncremental.update(g0, g1, st, seed = 4, epoch = 1)
    assertConverged(g1, st)
  }

  for (seed <- Seq(6L, 7L, 8L)) {
    test(s"mixed batch: invariants and fixpoint hold (seed=$seed)") {
      val st = LocalRSLPA.propagate(g0, T = 15, seed = seed)
      val batch = EditBatch.halfAndHalf(g0, 40, seed = seed * 13)
      val g1 = g0.edited(batch.insertions, batch.deletions)
      val stats = LocalIncremental.update(g0, g1, st, seed = seed, epoch = 1)
      assertConverged(g1, st)
      assert(stats.repicked > 0)
    }
  }

  test("successive batches keep the state consistent") {
    var g = g0
    val st = LocalRSLPA.propagate(g, T = 10, seed = 9)
    for (epoch <- 1 to 4) {
      val batch = EditBatch.halfAndHalf(g, 30, seed = 100 + epoch)
      val g1 = g.edited(batch.insertions, batch.deletions)
      LocalIncremental.update(g, g1, st, seed = 9, epoch = epoch)
      assertConverged(g1, st)
      g = g1
    }
  }

  test("threaded receivers equal list-maintained records over chained batches") {
    for (((name, g0), batchSize) <- ReceiverListOracle.graphs.zip(Seq(100, 6))) {
      val st = LocalRSLPA.propagate(g0, T = 40, seed = 16)
      val oracle = ReceiverListOracle.propagate(g0, T = 40, seed = 16)
      var g = g0
      for (epoch <- 1 to 3) {
        val batch = EditBatch.halfAndHalf(g, batchSize, seed = 200 + epoch)
        val g1 = g.edited(batch.insertions, batch.deletions)
        val stats = LocalIncremental.update(g, g1, st, seed = 16, epoch = epoch)
        assert(oracle.update(g, g1, seed = 16, epoch = epoch) == stats, s"$name batch $epoch: stats differ")
        assert(st.labels.map(_.toSeq).toSeq == oracle.labels.map(_.toSeq).toSeq, s"$name batch $epoch: labels differ")
        val bad = oracle.receiverMismatches(st)
        assert(bad.isEmpty, s"$name batch $epoch: receivers differ at ${bad.take(5)}")
        assertConverged(g1, st)
        g = g1
      }
    }
  }

  test("a vertex losing all edges reverts to self-picks") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (0, 2)))
    val st = LocalRSLPA.propagate(g, T = 8, seed = 10)
    val g1 = g.edited(Nil, Seq((0, 1), (0, 2)))
    LocalIncremental.update(g, g1, st, seed = 10, epoch = 1)
    assertConverged(g1, st)
    assert(st.labels(0).forall(_ == 0L))
    (1 to 8).foreach(t => assert(st.srcs(0)(t) == 0 && st.poss(0)(t) == 0))
  }

  test("a previously isolated vertex picks from its new neighbors") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2)))
    val st = LocalRSLPA.propagate(g, T = 8, seed = 11)
    assert(st.labels(3).forall(_ == 3L))
    val g1 = g.edited(Seq((2, 3)), Nil)
    LocalIncremental.update(g, g1, st, seed = 11, epoch = 1)
    assertConverged(g1, st)
    (1 to 8).foreach(t => assert(st.srcs(3)(t) == 2))
  }

  test("touched counts are bounded by the total label count") {
    val st = LocalRSLPA.propagate(g0, T = 10, seed = 12)
    val batch = EditBatch.halfAndHalf(g0, 60, seed = 13)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    val stats = LocalIncremental.update(g0, g1, st, seed = 12, epoch = 1)
    assert(stats.touched <= g0.n.toLong * 10)
    assert(stats.corrected <= stats.touched)
  }

  test("larger batches touch more labels") {
    def touched(batchSize: Int): Long = {
      val st = LocalRSLPA.propagate(g0, T = 12, seed = 14)
      val batch = EditBatch.halfAndHalf(g0, batchSize, seed = 15)
      val g1 = g0.edited(batch.insertions, batch.deletions)
      LocalIncremental.update(g0, g1, st, seed = 14, epoch = 1).touched
    }
    assert(touched(100) > touched(10))
  }

  test("HEADLINE: incremental labels match from-scratch labels in distribution") {
    // The paper's central claim (§IV, Theorems 4/5): after incremental
    // updating, every label is distributed as if Algorithm 1 had been run
    // from scratch on the new graph. Compare the per-(vertex, iteration)
    // marginal label distributions over many independent runs.
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)))
    val g1 = g.edited(Seq((0, 4)), Seq((1, 2)))
    val T = 3
    val trials = 4000

    def dist(labelsOf: Int => Array[Array[Long]]): Map[(Int, Int), Map[Long, Double]] = {
      val counts = scala.collection.mutable.Map.empty[(Int, Int), scala.collection.mutable.Map[Long, Int]]
      for (s <- 0 until trials) {
        val mem = labelsOf(s)
        for (i <- 0 until g.n; t <- 1 to T) {
          val m = counts.getOrElseUpdate((i, t), scala.collection.mutable.Map.empty)
          m(mem(i)(t)) = m.getOrElse(mem(i)(t), 0) + 1
        }
      }
      counts.view.mapValues(_.view.mapValues(_.toDouble / trials).toMap).toMap
    }

    val incremental = dist { s =>
      val st = LocalRSLPA.propagate(g, T, seed = 1000000L + s)
      LocalIncremental.update(g, g1, st, seed = 1000000L + s, epoch = 1)
      st.labels
    }
    val scratch = dist { s =>
      LocalRSLPA.propagate(g1, T, seed = 9000000L + s).labels
    }

    for (key <- scratch.keys) {
      val p = incremental(key); val q = scratch(key)
      val tv = (p.keySet ++ q.keySet).iterator
        .map(l => math.abs(p.getOrElse(l, 0.0) - q.getOrElse(l, 0.0))).sum / 2
      assert(tv < 0.08, s"total variation at $key is $tv:\n  inc=$p\n  scr=$q")
    }
  }

  /** Per-(vertex, iteration) marginal label distributions of the memories
    * `labelsOf(s)` over `trials` runs.
    */
  private def labelDistribution(n: Int, T: Int, trials: Int)(labelsOf: Int => Array[Array[Long]]) = {
    val counts = scala.collection.mutable.Map.empty[(Int, Int), scala.collection.mutable.Map[Long, Int]]
    for (s <- 0 until trials) {
      val mem = labelsOf(s)
      for (i <- 0 until n; t <- 1 to T) {
        val m = counts.getOrElseUpdate((i, t), scala.collection.mutable.Map.empty)
        m(mem(i)(t)) = m.getOrElse(mem(i)(t), 0) + 1
      }
    }
    counts.view.mapValues(_.view.mapValues(_.toDouble / trials).toMap).toMap
  }

  private def assertSameDistribution(inc: Map[(Int, Int), Map[Long, Double]],
                                     scr: Map[(Int, Int), Map[Long, Double]], bound: Double): Unit =
    for (key <- scr.keys) {
      val p = inc(key); val q = scr(key)
      val tv = (p.keySet ++ q.keySet).iterator
        .map(l => math.abs(p.getOrElse(l, 0.0) - q.getOrElse(l, 0.0))).sum / 2
      assert(tv < bound, s"total variation at $key is $tv:\n  inc=$p\n  scr=$q")
    }

  test("chained batches: incremental labels match from-scratch labels in distribution") {
    // Theorems 4/5 over three batches chained on one state, each with its
    // own epoch, against scratch runs on the final graph; same trials and
    // bound as the HEADLINE test.
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)))
    val graphs = Seq(
      (Seq((0, 4)), Seq((1, 2))),
      (Seq((1, 2)), Seq((3, 4), (0, 1))),
      (Seq((2, 4), (0, 1)), Seq((1, 3)))
    ).scanLeft(g) { case (h, (ins, del)) => h.edited(ins, del) }
    val T = 3
    val trials = 4000
    val incremental = labelDistribution(g.n, T, trials) { s =>
      val st = LocalRSLPA.propagate(g, T, seed = 1000000L + s)
      for (e <- 1 until graphs.size)
        LocalIncremental.update(graphs(e - 1), graphs(e), st, seed = 1000000L + s, epoch = e)
      st.labels
    }
    val scratch = labelDistribution(g.n, T, trials) { s =>
      LocalRSLPA.propagate(graphs.last, T, seed = 9000000L + s).labels
    }
    assertSameDistribution(incremental, scratch, 0.08)
  }
}
