package repro.graph

import repro.util.{Rng, SplitMix64}

/** Synthetic graph generators.
  *
  * The paper's efficiency experiments run on the `eu-2015-tpd` web crawl
  * (6.65M nodes / 170M edges), which needs a 7-server cluster. We substitute
  * an RMAT-style power-law generator (Chakrabarti et al., 2004): recursive
  * quadrant sampling with probabilities (a, b, c, d) produces the
  * heavy-tailed in/out-degree distributions characteristic of web graphs.
  * Like the paper's pipeline, the raw graph is *directed*; `undirectLocal`
  * removes directions, multi-edges and self-loops before running the
  * algorithms (§V-B1 of the paper).
  *
  * Everything is deterministic in `seed`.
  */
object GraphGen {

  /** RMAT quadrant probabilities a, b and c; d = 1 − a − b − c. */
  private val A = 0.57
  private val B = 0.19
  private val C = 0.19

  /** Directed RMAT edge sample: `numEdges` raw edges over `2^scale` vertices. */
  def rmatEdgesLocal(scale: Int, numEdges: Long, seed: Long): Seq[(Long, Long)] = {
    (0L until numEdges).map { i =>
      val rng = Rng.forItem(seed, i, Rng.SaltGen)
      rmatOne(scale, rng)
    }
  }

  private def rmatOne(scale: Int, rng: SplitMix64): (Long, Long) = {
    var u = 0L; var v = 0L
    var bit = 0
    while (bit < scale) {
      val r = rng.nextDouble()
      if (r < A) { /* top-left */ }
      else if (r < A + B) { v |= 1L << bit }
      else if (r < A + B + C) { u |= 1L << bit }
      else { u |= 1L << bit; v |= 1L << bit }
      bit += 1
    }
    (u, v)
  }

  /** Undirect, dedupe and drop self-loops: canonical (u < v) edge list. */
  def undirectLocal(edges: Seq[(Long, Long)]): Seq[(Long, Long)] =
    edges.iterator
      .filter { case (s, d) => s != d }
      .map { case (s, d) => (math.min(s, d), math.max(s, d)) }
      .toSet.toSeq.sorted

  /** The web-graph substitute used by the efficiency benches: a directed
    * RMAT graph compacted to dense ids `0 until n`, plus its undirected
    * version as a [[LocalGraph]].
    */
  def webGraphLocal(scale: Int, numEdges: Long, seed: Long): (Seq[(Int, Int)], LocalGraph) = {
    val raw = rmatEdgesLocal(scale, numEdges, seed)
    // Compact ids: many RMAT ids in [0, 2^scale) are untouched.
    val ids = raw.iterator.flatMap { case (s, d) => Iterator(s, d) }.toSeq.distinct.sorted
    val remap = ids.zipWithIndex.toMap
    val directed = raw.map { case (s, d) => (remap(s), remap(d)) }
    val undirected = undirectLocal(directed.map { case (s, d) => (s.toLong, d.toLong) })
      .map { case (u, v) => (u.toInt, v.toInt) }
    (directed, LocalGraph.fromEdges(ids.size, undirected))
  }
}
