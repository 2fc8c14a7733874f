package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}
import repro.lfr.{LFRGenerator, LFRParams}
import repro.metrics.OverlappingNMI

class LocalRSLPASpec extends AnyFunSuite {

  private def twoCliques: LocalGraph = {
    val a = for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)
    val b = for (i <- 5 until 10; j <- i + 1 until 10) yield (i, j)
    LocalGraph.fromEdges(10, a ++ b :+ (4, 5))
  }

  test("state dimensions: memories of length T+1, initial label is own id") {
    val st = LocalRSLPA.propagate(twoCliques, T = 9, seed = 1)
    assert(st.n == 10 && st.T == 9)
    st.labels.zipWithIndex.foreach { case (m, i) =>
      assert(m.length == 10 && m(0) == i.toLong)
    }
  }

  test("structural invariants hold after propagation") {
    val g = GraphGen.webGraphLocal(7, 300, seed = 2)._2
    val st = LocalRSLPA.propagate(g, T = 15, seed = 3)
    val errs = st.checkInvariants(g.adj)
    assert(errs.isEmpty, errs.take(5).mkString("; "))
  }

  test("propagation is deterministic in seed") {
    val g = twoCliques
    val a = LocalRSLPA.propagate(g, 12, seed = 4)
    val b = LocalRSLPA.propagate(g, 12, seed = 4)
    val c = LocalRSLPA.propagate(g, 12, seed = 5)
    assert(a.labels.map(_.toSeq).toSeq == b.labels.map(_.toSeq).toSeq)
    assert(a.srcs.map(_.toSeq).toSeq == b.srcs.map(_.toSeq).toSeq)
    assert(a.labels.map(_.toSeq).toSeq != c.labels.map(_.toSeq).toSeq)
  }

  test("every label is consistent with its recorded source") {
    val g = twoCliques
    val st = LocalRSLPA.propagate(g, 20, seed = 6)
    for (i <- 0 until g.n; t <- 1 to 20)
      assert(st.labels(i)(t) == st.labels(st.srcs(i)(t))(st.poss(i)(t)))
  }

  test("receiver records mirror (src, pos) exactly") {
    val g = twoCliques
    val st = LocalRSLPA.propagate(g, 10, seed = 7)
    val fromRecords = (for {
      i <- 0 until g.n; p <- 0 to 10; (tar, k) <- st.receivers(i, p)
    } yield (tar, k, i, p)).toSet
    val fromPicks = (for {
      i <- 0 until g.n; t <- 1 to 10
    } yield (i, t, st.srcs(i)(t), st.poss(i)(t))).toSet
    assert(fromRecords == fromPicks)
  }

  test("threaded receivers equal the list-built records as sets") {
    for (((name, g), seed) <- ReceiverListOracle.graphs.zipWithIndex) {
      val st = LocalRSLPA.propagate(g, 40, seed + 40L)
      val oracle = ReceiverListOracle.propagate(g, 40, seed + 40L)
      val bad = oracle.receiverMismatches(st)
      assert(bad.isEmpty, s"$name: receivers differ at ${bad.take(5)}")
    }
  }

  test("propagate rejects label keys beyond Int range before allocating") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val e = intercept[IllegalArgumentException](LocalRSLPA.propagate(g, 1 << 30, seed = 1))
    assert(e.getMessage.contains("must fit an Int"))
  }

  test("isolated vertices keep their own label") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1)))
    val st = LocalRSLPA.propagate(g, 8, seed = 8)
    assert(st.labels(2).forall(_ == 2L))
    assert(st.labels(3).forall(_ == 3L))
  }

  test("first-iteration labels come from neighbors' initial labels") {
    val g = twoCliques
    val st = LocalRSLPA.propagate(g, 5, seed = 9)
    for (i <- 0 until g.n) {
      assert(g.adj(i).contains(st.srcs(i)(1)))
      assert(st.poss(i)(1) == 0)
      assert(st.labels(i)(1) == st.srcs(i)(1).toLong)
    }
  }

  test("uniform-picking is flatter than voting (Theorem 1, empirically)") {
    // Star center with 4 leaves: leaves hold constant memories by symmetry
    // of iteration 1; measure the center's distribution of picked labels
    // across seeds and compare with SLPA's plurality pick.
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (0, 4)))
    val trials = 4000
    // Distribution of the center's t=1 pick: uniform over 4 leaves → max prob 0.25.
    val picks = (0 until trials).map(s => LocalRSLPA.propagate(g, 1, seed = 9000 + s).labels(0)(1))
    val maxFreq = picks.groupBy(identity).values.map(_.size).max.toDouble / trials
    assert(maxFreq < 0.32, s"uniform-picking max frequency $maxFreq should be ~0.25")
  }

  test("rSLPA recovers planted LFR communities with decent NMI") {
    val inst = LFRGenerator.generate(
      LFRParams(n = 500, avgDeg = 16, maxDeg = 40, mu = 0.1, on = 25, om = 2, seed = 5))
    val cover = LocalRSLPA.detect(inst.graph, T = 100, seed = 10)
    val nmi = OverlappingNMI.score(cover.map(_.toSet), inst.communities, inst.graph.n)
    assert(nmi > 0.5, s"NMI too low: $nmi")
  }

  test("two cliques are separated by the full pipeline") {
    val covers = (0 until 5).map(s => LocalRSLPA.detect(twoCliques, T = 60, seed = 200 + s))
    val good = covers.count { c =>
      c.exists(comm => Set(0, 1, 2, 3).subsetOf(comm)) &&
      c.exists(comm => Set(6, 7, 8, 9).subsetOf(comm))
    }
    assert(good >= 3, s"cliques recovered in only $good/5 runs")
  }
}
