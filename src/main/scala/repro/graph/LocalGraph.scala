package repro.graph

import scala.collection.mutable

/** Immutable undirected graph with vertices `0 until n`, stored as sorted
  * adjacency arrays.
  *
  * This is the substrate for the *local* engines (quality sweeps run at the
  * paper's full parameter scale on the driver) and the reference the Spark
  * engines are tested against. Self-loops and duplicate edges are removed
  * at construction; neighbor arrays are sorted so that every random pick
  * indexed by a deterministic RNG is reproducible across engines.
  */
final class LocalGraph private (val n: Int, val adj: Array[Array[Int]]) {

  /** Degree of vertex `i`. */
  def degree(i: Int): Int = adj(i).length

  /** Number of undirected edges. */
  lazy val numEdges: Long = adj.map(_.length.toLong).sum / 2

  /** Canonical (u < v) edge list, sorted. */
  def edges: IndexedSeq[(Int, Int)] =
    (0 until n).flatMap(u => adj(u).iterator.filter(_ > u).map(v => (u, v)))

  /** True iff `(u, v)` is an edge (binary search on the sorted array). */
  def hasEdge(u: Int, v: Int): Boolean =
    u != v && java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** New graph with `deletions` removed and `insertions` added; an edge
    * both deleted and inserted is present. Edits referencing non-existent
    * state are ignored (idempotent), and self-loop insertions are dropped.
    * Only rows with an edited endpoint are re-sorted; the others are
    * copied, so that every row of the new graph is allocated in vertex
    * order. Sharing them instead scatters a long-edited graph's rows
    * across the heap, and every later pass over all rows (a scratch
    * propagation) slows as the graph is edited: by a quarter over 8,000
    * edits of a 10K-vertex, 140K-edge graph (4-core x86 VM, JDK 17).
    */
  def edited(insertions: Seq[(Int, Int)], deletions: Seq[(Int, Int)]): LocalGraph = {
    (insertions.iterator ++ deletions.iterator).foreach { case (u, v) => LocalGraph.checkRange(n, u, v) }
    def byEndpoint(es: Seq[(Int, Int)]): Map[Int, Seq[Int]] =
      es.flatMap { case (u, v) => Seq((u, v), (v, u)) }.groupMap(_._1)(_._2)
    val ins = byEndpoint(insertions.filter { case (u, v) => u != v })
    val del = byEndpoint(deletions).view.mapValues(_.toSet).toMap
    val next = Array.tabulate(n) { u =>
      if (!ins.contains(u) && !del.contains(u)) adj(u).clone()
      else {
        val row = adj(u).filterNot(del.getOrElse(u, Set.empty[Int])) ++ ins.getOrElse(u, Nil)
        java.util.Arrays.sort(row)
        row.distinct
      }
    }
    new LocalGraph(n, next)
  }
}

object LocalGraph {

  /** Build from an edge list; ids must be in `[0, n)`. */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): LocalGraph = {
    val sets = Array.fill(n)(mutable.SortedSet.empty[Int])
    edges.foreach { case (u, v) =>
      checkRange(n, u, v)
      if (u != v) { sets(u) += v; sets(v) += u }
    }
    new LocalGraph(n, sets.map(_.toArray))
  }

  private def checkRange(n: Int, u: Int, v: Int): Unit =
    require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
}
