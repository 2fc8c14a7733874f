package repro.graph

/** Dataset statistics in the shape of the paper's Table II:
  * node count, edge count, average degree, max in-degree, max out-degree —
  * computed over a *directed* edge list (`src`, `dst`), matching how the
  * paper reports the raw eu-2015-tpd crawl before undirecting it.
  */
final case class TableIIStats(nodes: Long, edges: Long, avgDegree: Double,
                              maxInDegree: Long, maxOutDegree: Long)

object GraphStats {

  /** Distinct directed edges without self-loops, sorted by `(src, dst)`.
    * Ids must be non-negative.
    */
  def canonicalDirected(edges: Seq[(Int, Int)]): Array[(Int, Int)] = {
    val packed = edges.iterator.collect { case (s, d) if s != d =>
      require(s >= 0 && d >= 0, s"negative vertex id in ($s, $d)")
      (s.toLong << 32) | d
    }.toArray
    java.util.Arrays.sort(packed)
    val out = Array.newBuilder[(Int, Int)]
    var i = 0
    while (i < packed.length) {
      if (i == 0 || packed(i) != packed(i - 1)) out += (((packed(i) >>> 32).toInt, packed(i).toInt))
      i += 1
    }
    out.result()
  }

  /** Table II statistics of a directed edge list over non-negative ids; the
    * nodes are the endpoints of its canonical edges.
    */
  def tableII(directed: Seq[(Int, Int)]): TableIIStats = {
    val e = canonicalDirected(directed)
    require(e.nonEmpty, "Table II needs an edge that is not a self-loop")
    val n = e.iterator.map { case (s, d) => math.max(s, d) }.max + 1
    val in = new Array[Int](n)
    val out = new Array[Int](n)
    for ((s, d) <- e) { out(s) += 1; in(d) += 1 }
    val nodes = (0 until n).count(v => in(v) > 0 || out(v) > 0)
    TableIIStats(nodes, e.length, e.length.toDouble / nodes, in.max, out.max)
  }
}
