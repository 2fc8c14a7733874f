package repro.experiments

import repro.core.LocalRSLPA
import repro.graph.LocalGraph
import repro.lfr.{LFRGenerator, LFRParams}
import repro.metrics.OverlappingNMI
import repro.slpa.LocalSLPA
import repro.util.BenchUtil
import repro.util.BenchUtil.{f3, runs}

/** Fig. 7a–7f as numeric tables: NMI of rSLPA and SLPA on LFR graphs
  * under the paper's parameter sweeps (§V-A: SLPA T=100 with τ=0.2; rSLPA
  * T=200 with τ1/τ2 from Eqs. 1–2), on the local engines, which the Spark
  * engines match bit for bit. The paper averages 10 runs; we average
  * [[BenchUtil.runs]], 1 for Fig. 7a (EXPERIMENTS.md).
  */
object Figure7Experiments {

  /** The paper's default LFR setting (Table I text). */
  def defaults(seed: Long = 1): LFRParams =
    LFRParams(n = 10000, avgDeg = 30, maxDeg = 100, mu = 0.1,
              on = 1000, om = 2, seed = seed)

  val SlpaT = 100
  val SlpaTau = 0.2
  val RslpaT = 200

  /** Average NMI of `detect(graph, r)` over `runs` independent LFR graphs. */
  private def meanNmi(p: LFRParams, runs: Int)(detect: (LocalGraph, Int) => Seq[Set[Int]]): Double =
    (0 until runs).map { r =>
      val inst = LFRGenerator.generate(p.copy(seed = p.seed + 101 * r))
      OverlappingNMI.score(detect(inst.graph, r), inst.communities, inst.graph.n)
    }.sum / runs

  /** Average NMI of rSLPA over `runs` independent graphs/seeds. */
  def rslpaNmi(p: LFRParams, T: Int, runs: Int, seed0: Long): Double =
    meanNmi(p, runs)((g, r) => LocalRSLPA.detect(g, T, seed = seed0 + 13 * r))

  /** Average NMI of SLPA over `runs` independent graphs/seeds. */
  def slpaNmi(p: LFRParams, runs: Int, seed0: Long): Double =
    meanNmi(p, runs)((g, r) => LocalSLPA.detect(g, SlpaT, SlpaTau, seed = seed0 + 17 * r))

  /** Fig. 7a — rSLPA convergence: NMI vs T for several N, one run each; rows (N, T, NMI). */
  object Convergence {
    val Ns = Seq(10000, 20000, 50000)
    val Ts = Seq(100, 200, 400)

    def run(): Seq[(Int, Int, Double)] =
      for (n <- Ns; t <- Ts) yield {
        val p = defaults().copy(n = n, on = n / 10)
        (n, t, rslpaNmi(p, t, runs = 1, seed0 = 7000 + n + t))
      }

    def print(rows: Seq[(Int, Int, Double)]): Unit =
      BenchUtil.printTable("Fig. 7a — rSLPA convergence (NMI vs T); paper: stable >=0.8 for T>=200",
        Seq("N", "T", "NMI(rSLPA)"),
        rows.map { case (n, t, s) => Seq(n.toString, t.toString, f3(s)) })
  }

  /** Fig. 7b–7f — one LFR parameter, set by `mod`, swept over `values`;
    * rows (value, NMI(SLPA), NMI(rSLPA)).
    */
  final class Sweep(title: String, column: String, values: Seq[Double], show: Double => String,
                    mod: (LFRParams, Double) => LFRParams, seedBase: Long) {
    def run(): Seq[(Double, Double, Double)] =
      values.map { v =>
        val p = mod(defaults(), v)
        (v, slpaNmi(p, runs, seedBase + (v * 100).toLong),
          rslpaNmi(p, RslpaT, runs, seedBase + 50 + (v * 100).toLong))
      }

    def print(rows: Seq[(Double, Double, Double)]): Unit =
      BenchUtil.printTable(title, Seq(column, "NMI(SLPA)", "NMI(rSLPA)"),
        rows.map { case (v, s, r) => Seq(show(v), f3(s), f3(r)) })
  }

  private val whole: Double => String = _.toInt.toString

  val vsN = new Sweep("Fig. 7b — NMI vs N; paper: both ~0.95, difference small", "N",
    Seq(10000, 20000, 30000, 40000, 50000), whole, (p, v) => p.copy(n = v.toInt, on = v.toInt / 10), 100)

  val vsK = new Sweep("Fig. 7c — NMI vs k; paper: grows with k, flat for k>=50", "k",
    Seq(10, 30, 50, 70), whole, (p, v) => p.copy(avgDeg = v), 200)

  val vsMu = new Sweep("Fig. 7d — NMI vs mu; paper: SLPA ~flat, rSLPA drops slowly", "mu",
    Seq(0.1, 0.2, 0.3), _.toString, (p, v) => p.copy(mu = v), 300)

  val vsOm = new Sweep("Fig. 7e — NMI vs om; paper: both decrease; rSLPA better for om>3", "om",
    Seq(2, 3, 4, 5), whole, (p, v) => p.copy(om = v.toInt), 400)

  val vsOn = new Sweep("Fig. 7f — NMI vs on; paper: both decrease with on", "on",
    Seq(1000, 2000, 3000), whole, (p, v) => p.copy(on = v.toInt), 500)
}
