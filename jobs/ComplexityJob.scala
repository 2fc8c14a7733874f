package repro.jobs

import repro.experiments.ComplexityExperiment
import repro.graph.GraphGen
import repro.util.BenchUtil
import repro.util.BenchUtil.{f2, f3}

/** §IV-D (as a table) — measured η (labels whose value an update
  * changed) vs the model: expected η̂ (Eq. 8) and best/worst bounds (Eqs. 10/12).
  *
  * Args: [scale] [rawEdges] [T] [runs] (defaults 14, 200000, 100, 3).
  */
object ComplexityJob {
  def main(args: Array[String]): Unit = {
    val scale = if (args.length > 0) args(0).toInt else 14
    val rawEdges = if (args.length > 1) args(1).toLong else 200000L
    val t = if (args.length > 2) args(2).toInt else 100
    val runs = if (args.length > 3) args(3).toInt else 3
    val g = GraphGen.webGraphLocal(scale, rawEdges, seed = 2015)._2
    println(s"graph: |V|=${g.n} |E|=${g.numEdges} T=$t")
    val rows = ComplexityExperiment.run(g, t, Seq(100, 1000, 10000), runs, seed = 10)
    BenchUtil.printTable("Correction-propagation cost vs the Sec. IV-D model",
      Seq("batch", "p_c", "measured eta", "expected (Eq.8)", "best (Eq.10)", "worst (Eq.12)"),
      rows.map(r => Seq(r.batchSize.toString, f3(r.pc), f2(r.measuredEta),
        f2(r.expected), f2(r.bestCase), f2(r.worstCase))))
  }
}
