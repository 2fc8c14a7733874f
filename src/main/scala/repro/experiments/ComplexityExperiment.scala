package repro.experiments

import repro.core.{ComplexityModel, LocalIncremental, LocalRSLPA}
import repro.dynamic.EditBatch
import repro.graph.LocalGraph

/** Validation of the §IV-D complexity model: the measured η — labels whose
  * value an update changed — vs the expected η̂ (Eq. 8) and the
  * best/worst-case bounds (Eqs. 10, 12).
  */
object ComplexityExperiment {

  final case class Row(batchSize: Int, pc: Double, measuredEta: Double,
                       expected: Double, bestCase: Double, worstCase: Double)

  def run(g: LocalGraph, T: Int, batchSizes: Seq[Int], runs: Int, seed: Long): Seq[Row] = {
    batchSizes.map { b =>
      val measured = (0 until runs).map { r =>
        val st = LocalRSLPA.propagate(g, T, seed + r)
        val batch = EditBatch.halfAndHalf(g, b, seed = seed + 7919 * (r + 1) + b)
        val g1 = g.edited(batch.insertions, batch.deletions)
        LocalIncremental.update(g, g1, st, seed + r, epoch = 1).corrected.toDouble
      }.sum / runs
      val pcVal = ComplexityModel.pc(g.numEdges, b - b / 2, b / 2)
      Row(b, pcVal, measured,
        ComplexityModel.expectedEta(T, g.n, pcVal),
        ComplexityModel.bestCaseEta(T, g.n, pcVal),
        ComplexityModel.worstCaseEta(T, g.n, pcVal))
    }
  }
}
