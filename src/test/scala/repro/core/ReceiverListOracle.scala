package repro.core

import repro.graph.LocalGraph
import repro.lfr.{LFRGenerator, LFRParams}

/** Reference for the receiver records R: an rSLPA state whose R is one
  * `List[(tar, k)]` per (vertex, position), built by prepending in the
  * propagation loop and maintained by `::=` and `filterNot` under
  * Algorithm 2. It runs the same picks, re-pick loop and [[Correction]]
  * kernel as [[LocalRSLPA.propagate]] and [[LocalIncremental.update]], so
  * its R, as sets, must equal the threaded R of an [[RslpaState]] driven
  * through the same calls.
  */
final class ReceiverListOracle private (
    val n: Int,
    val T: Int,
    val labels: Array[Array[Long]],
    val srcs: Array[Array[Int]],
    val poss: Array[Array[Int]],
    val recv: Array[Array[List[(Int, Int)]]]
) {

  /** The re-pick loop of [[LocalIncremental.update]] over this state. */
  def update(oldG: LocalGraph, newG: LocalGraph, seed: Long, epoch: Long): UpdateStats = {
    val c = new Correction(new ListRows, T)
    for (i <- 0 until n if !java.util.Arrays.equals(oldG.adj(i), newG.adj(i))) {
      val diff = Picks.diff(oldG.adj(i).map(_.toLong), newG.adj(i).map(_.toLong), i.toLong)
      for (t <- 1 to T; (src, pos) <- diff.repick(t, srcs(i)(t), seed, epoch))
        c.repick(i, t, src, pos)
    }
    c.drain()
  }

  /** The (vertex, position) pairs whose receivers in `st` differ, as sets,
    * from this state's.
    */
  def receiverMismatches(st: RslpaState): Seq[(Int, Int)] =
    for (i <- 0 until n; p <- 0 to T if st.receivers(i, p).toSet != recv(i)(p).toSet) yield (i, p)

  private final class ListRows extends Correction.Rows {
    def label(v: Long, t: Int): Long = labels(v.toInt)(t)
    def setLabel(v: Long, t: Int, l: Long): Unit = labels(v.toInt)(t) = l
    def pick(v: Long, t: Int): (Long, Int) = (srcs(v.toInt)(t), poss(v.toInt)(t))
    def setPick(v: Long, t: Int, src: Long, pos: Int): Unit = {
      srcs(v.toInt)(t) = src.toInt; poss(v.toInt)(t) = pos
    }
    def addReceiver(v: Long, p: Int, tar: Long, k: Int): Unit = recv(v.toInt)(p) ::= ((tar.toInt, k))
    def removeReceiver(v: Long, p: Int, tar: Long, k: Int): Unit = {
      val rec = (tar.toInt, k)
      recv(v.toInt)(p) = recv(v.toInt)(p).filterNot(_ == rec)
    }
    def foreachReceiver(v: Long, p: Int)(f: (Long, Int) => Unit): Unit =
      recv(v.toInt)(p).foreach { case (tar, k) => f(tar, k) }
  }
}

object ReceiverListOracle {

  /** Graphs to compare R on: a 1K-vertex LFR graph, and a sparse graph
    * with isolated vertices whose edits isolate and join vertices.
    */
  lazy val graphs: Seq[(String, LocalGraph)] = Seq(
    "LFR" -> LFRGenerator.generate(
      LFRParams(n = 1000, avgDeg = 15, maxDeg = 50, mu = 0.1, on = 100, om = 2, seed = 11)).graph,
    "isolated" -> LocalGraph.fromEdges(20,
      Seq((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (13, 14), (12, 14))))

  /** Algorithm 1 with R built as lists in the propagation loop. */
  def propagate(g: LocalGraph, T: Int, seed: Long): ReceiverListOracle = {
    val n = g.n
    val labels = Array.tabulate(n)(i => { val a = new Array[Long](T + 1); a(0) = i.toLong; a })
    val srcs = Array.fill(n)(Array.fill(T + 1)(-1))
    val poss = Array.fill(n)(Array.fill(T + 1)(-1))
    val recv = Array.fill(n)(Array.fill(T + 1)(List.empty[(Int, Int)]))
    var t = 1
    while (t <= T) {
      var i = 0
      while (i < n) {
        val (src, pos) = LocalRSLPA.pick(g.adj(i), i, t, seed)
        labels(i)(t) = labels(src)(pos)
        srcs(i)(t) = src
        poss(i)(t) = pos
        recv(src)(pos) ::= ((i, t))
        i += 1
      }
      t += 1
    }
    new ReceiverListOracle(n, T, labels, srcs, poss, recv)
  }
}
