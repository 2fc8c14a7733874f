package repro.experiments

import repro.core.{ComplexityModel, LocalIncremental, LocalRSLPA}
import repro.dynamic.EditBatch
import repro.graph.GraphGen
import repro.util.BenchUtil
import repro.util.BenchUtil.{f2, f3, runs}

/** Validation of the §IV-D complexity model: the measured η — labels whose
  * value an update changed — vs the expected η̂ (Eq. 8) and the bounds
  * (Eqs. 10, 12) on the Fig. 9 graph at T=100, [[BenchUtil.runs]] runs each.
  */
object ComplexityExperiment {

  final case class Row(batchSize: Int, pc: Double, measuredEta: Double,
                       expected: Double, bestCase: Double, worstCase: Double)

  val T = 100

  def run(): Seq[Row] = {
    val g = GraphGen.webGraphLocal(scale = 14, numEdges = 200000L, seed = 2015)._2
    println(s"graph: |V|=${g.n} |E|=${g.numEdges} T=$T")
    val seed = 10L
    Seq(100, 1000, 10000).map { b =>
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

  def print(rows: Seq[Row]): Unit =
    BenchUtil.printTable(
      "Labels needing update: measured vs Sec. IV-D model",
      Seq("batch", "p_c", "measured eta", "expected (Eq.8)", "best (Eq.10)", "worst (Eq.12)"),
      rows.map(r => Seq(r.batchSize.toString, f3(r.pc), f2(r.measuredEta),
        f2(r.expected), f2(r.bestCase), f2(r.worstCase))))
}
