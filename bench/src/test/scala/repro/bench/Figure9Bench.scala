package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.experiments.EfficiencyExperiments.Figure9

/** Fig. 9 as defined by [[Figure9]]. Paper shape: incremental is faster
  * than scratch at every batch size and its running time grows
  * *sublinearly* in the batch size.
  */
class Figure9Bench extends AnyFunSuite with SparkSpec {

  test("Fig. 9: incremental updating vs from scratch") {
    val rows = Figure9.run(spark)
    Figure9.print(rows)
    BenchJson.write("fig9", rows)

    // Paper: incremental beats from-scratch (clearly so for small batches).
    // Scratch is the paper's per-iteration Algorithm 1; the pointer-jumping
    // column is reported beside it.
    val small = rows.head
    assert(small.incrementalSec < small.scratchSec,
      s"incremental ${small.incrementalSec}s should beat scratch ${small.scratchSec}s at batch=${small.batchSize}")
    // Paper: sublinear growth — time ratio far below the batch-size ratio.
    val timeRatio = rows.last.incrementalSec / rows.head.incrementalSec
    val batchRatio = Figure9.Batches.last.toDouble / Figure9.Batches.head
    assert(timeRatio < batchRatio / 2,
      s"growth not sublinear: time x$timeRatio for batch x$batchRatio")
    // The touched-label counts must grow with the batch, also sublinearly.
    assert(rows.last.repicked > rows.head.repicked)
  }
}
