package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.ComplexityExperiment
import repro.graph.GraphGen
import repro.util.BenchUtil
import repro.util.BenchUtil.{f2, f3}

/** §IV-D model validation (bonus table) — measured η (labels whose value
  * an update changed) vs expected η̂ (Eq. 8) and the best/worst-case
  * bounds (Eqs. 10/12), across batch sizes.
  */
class ComplexityBench extends AnyFunSuite {

  test("correction-propagation cost vs the analytical model") {
    val g = GraphGen.webGraphLocal(scale = 14, numEdges = 200000L, seed = 2015)._2
    val T = 100
    val rows = ComplexityExperiment.run(g, T, Seq(100, 1000, 10000),
      runs = sys.env.getOrElse("REPRO_RUNS", "2").toInt, seed = 10)
    println(s"graph: |V|=${g.n} |E|=${g.numEdges} T=$T")
    BenchUtil.printTable(
      "Labels needing update: measured vs Sec. IV-D model",
      Seq("batch", "p_c", "measured eta", "expected (Eq.8)", "best (Eq.10)", "worst (Eq.12)"),
      rows.map(r => Seq(r.batchSize.toString, f3(r.pc), f2(r.measuredEta),
        f2(r.expected), f2(r.bestCase), f2(r.worstCase))))

    rows.foreach { r =>
      assert(r.bestCase <= r.expected + 1e-6 && r.expected <= r.worstCase + 1e-6)
      // Measured values sit inside (or near) the analytical envelope.
      assert(r.measuredEta <= r.worstCase * 1.5,
        s"batch=${r.batchSize}: measured ${r.measuredEta} above worst ${r.worstCase}")
      assert(r.measuredEta >= r.bestCase * 0.2,
        s"batch=${r.batchSize}: measured ${r.measuredEta} below best ${r.bestCase}")
    }
    // Sublinear growth of eta in the batch size (the Fig. 9 explanation).
    val etaRatio = rows.last.measuredEta / rows.head.measuredEta
    assert(etaRatio < 100.0, s"eta should grow sublinearly: x$etaRatio for batch x100")
  }
}
