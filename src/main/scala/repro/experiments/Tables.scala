package repro.experiments

import repro.graph.{GraphGen, GraphStats, TableIIStats}
import repro.lfr.{LFRGenerator, LFRInstance, LFRParams}
import repro.util.BenchUtil
import repro.util.BenchUtil.{f2, f3}

/** Table I — the LFR parameters at the paper's defaults (N=10,000, k=30,
  * maxk=100, om=2, on=0.1N, μ=0.1), and how closely the graph generated
  * from them honors each one.
  */
object TableI {

  /** The parameters, the generated instance and its measured statistics. */
  final case class Result(p: LFRParams, inst: LFRInstance, avg: Double, maxDeg: Int,
                          multi: Int, mixing: Double)

  def run(): Result = {
    val p = Figure7Experiments.defaults()
    val inst = LFRGenerator.generate(p)
    val avg = 2.0 * inst.graph.numEdges / inst.graph.n
    val maxDeg = (0 until inst.graph.n).map(inst.graph.degree).max
    val m = inst.membershipOf
    val multi = m.count(_.size >= 2)
    val internal = inst.graph.edges.count { case (u, v) => m(u).exists(m(v).contains) }
    Result(p, inst, avg, maxDeg, multi, 1.0 - internal.toDouble / inst.graph.numEdges)
  }

  def print(r: Result): Unit = {
    import r._
    BenchUtil.printTable("Table I — LFR parameters (paper defaults)",
      Seq("parameter", "description", "value"),
      Seq(
        Seq("N", "the number of vertices", p.n.toString),
        Seq("maxk", "the max degree", p.maxDeg.toString),
        Seq("k", "the average degree", p.avgDeg.toString),
        Seq("mu", "the mixing parameter", p.mu.toString),
        Seq("on", "the number of overlapping vertices", p.on.toString),
        Seq("om", "memberships of overlapping vertices", p.om.toString),
      ))
    BenchUtil.printTable("Generated graph vs Table I targets",
      Seq("statistic", "target", "generated"),
      Seq(
        Seq("vertices", p.n.toString, inst.graph.n.toString),
        Seq("avg degree k", p.avgDeg.toString, f2(avg)),
        Seq("max degree maxk", s"<= ${p.maxDeg}", maxDeg.toString),
        Seq("overlapping vertices on", p.on.toString, multi.toString),
        Seq("mixing mu", p.mu.toString, f3(mixing)),
        Seq("ground-truth communities", "-", inst.communities.size.toString),
      ))
  }
}

/** Table II — statistics of the web-graph dataset used by the efficiency
  * experiments: the paper's eu-2015-tpd crawl (6.65M nodes, 170M edges)
  * next to the directed RMAT graph that Fig. 8 runs on (DESIGN.md).
  */
object TableII {

  def run(): TableIIStats = {
    import EfficiencyExperiments.Figure8.{RawEdges, Scale}
    GraphStats.tableII(GraphGen.webGraphLocal(Scale, RawEdges, seed = 2015)._1)
  }

  def print(s: TableIIStats): Unit =
    BenchUtil.printTable("Table II — web graph statistics",
      Seq("statistic", "paper (eu-2015-tpd)", "ours (RMAT substitute)"),
      Seq(
        Seq("# nodes", "6,650,532", s.nodes.toString),
        Seq("# edges", "170,145,510", s.edges.toString),
        Seq("avg. degree", "25.584", f3(s.avgDegree)),
        Seq("max in-degree", "74,129", s.maxInDegree.toString),
        Seq("max out-degree", "398,599", s.maxOutDegree.toString),
      ))
}
