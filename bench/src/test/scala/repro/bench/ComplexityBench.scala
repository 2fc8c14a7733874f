package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.ComplexityExperiment

/** §IV-D model validation (bonus table) as defined by
  * [[ComplexityExperiment]]: measured η inside the analytical envelope.
  */
class ComplexityBench extends AnyFunSuite {

  test("correction-propagation cost vs the analytical model") {
    val rows = ComplexityExperiment.run()
    ComplexityExperiment.print(rows)
    BenchJson.write("complexity", rows)

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
