package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.experiments.EfficiencyExperiments.Figure8

/** Fig. 8 as defined by [[Figure8]]. Paper shape: rSLPA label propagation
  * >2× faster overall (>5× per iteration); SLPA post-processing much
  * faster; totals comparable with rSLPA a bit ahead.
  */
class Figure8Bench extends AnyFunSuite with SparkSpec {

  test("Fig. 8: static running time of SLPA vs rSLPA") {
    val rows = Figure8.run(spark)
    Figure8.print(rows)
    BenchJson.write("fig8", rows)

    // The gates read the paper's per-iteration rSLPA; the pointer-jumping
    // row is reported beside it.
    val slpa = rows.find(_.algo == "SLPA").get
    val rslpa = rows.find(_.algo == "rSLPA").get
    // Paper: SLPA is >5x slower per iteration (O(|E|) vs O(|V|) messages).
    assert(slpa.perIterSec > rslpa.perIterSec,
      s"SLPA per-iter ${slpa.perIterSec} should exceed rSLPA ${rslpa.perIterSec}")
    // Paper: SLPA's thresholding post-processing is much cheaper than
    // rSLPA's similarity + connected-components pipeline.
    assert(slpa.postSec < rslpa.postSec,
      s"SLPA post ${slpa.postSec} should be below rSLPA post ${rslpa.postSec}")
  }
}
