package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

/** Connected components.
  *
  * The paper's post-processing finds communities as connected components of
  * the similarity-filtered graph, citing Chitnis et al. (ICDE 2013) for a
  * MapReduce algorithm in O(log d) rounds. We implement its Hash-to-Min
  * on Spark RDDs — each round is a Map + ReduceByKey, converging to the
  * minimum vertex id of each component — for the Spark engine's
  * extraction at the chosen τ1, plus a local union–find used by the local
  * engine and as the test oracle for the distributed version. The τ1
  * search itself needs no CC runs: it sweeps a [[UnionFind]] once
  * (`repro.core.PostKernel`).
  */
object ConnectedComponents {

  /** Local union–find; returns component representative per vertex
    * (minimum id in the component).
    */
  def local(n: Int, edges: Iterable[(Int, Int)]): Array[Int] = {
    val uf = new UnionFind(n)
    edges.foreach { case (u, v) => uf.union(u, v) }
    val minOf = Array.fill(n)(Int.MaxValue)
    (0 until n).foreach { v => val r = uf.find(v); minOf(r) = math.min(minOf(r), v) }
    Array.tabulate(n)(v => minOf(uf.find(v)))
  }

  /** Distributed CC via Hash-to-Min (the algorithm of the paper's
    * reference [18], Chitnis et al., ICDE 2013): every vertex keeps a
    * cluster `C_v` (initially its closed neighborhood); each round it sends
    * `C_v` to `min(C_v)` and `{min(C_v)}` to every other member, then
    * unions what it received. Converges in O(log n) rounds, after which
    * `min(C_v)` is the component minimum for every vertex.
    *
    * Returns `(vertex, componentMinId)` for every vertex appearing in
    * `edges`. Throws `IllegalStateException` if clusters still change after
    * 64 rounds.
    */
  def spark(edges: RDD[(Long, Long)]): RDD[(Long, Long)] = hashToMin(edges, maxRounds = 64)

  /** [[spark]] with its round cap as a parameter, so a test can reach it. */
  private[graph] def hashToMin(edges: RDD[(Long, Long)], maxRounds: Int): RDD[(Long, Long)] = {
    var clusters: RDD[(Long, Set[Long])] = edges
      .flatMap { case (u, v) => Iterator((u, Set(u, v)), (v, Set(u, v))) }
      .reduceByKey(_ ++ _)
      .persist(StorageLevel.MEMORY_AND_DISK)

    var changed = 1L
    var round = 0
    while (changed > 0 && round < maxRounds) {
      val next = clusters
        .flatMap { case (v, c) =>
          val m = c.min
          Iterator((m, c + v)) ++ c.iterator.filter(_ != m).map(u => (u, Set(m)))
        }
        .reduceByKey(_ ++ _)
        .persist(StorageLevel.MEMORY_AND_DISK)
      changed = next.join(clusters).filter { case (_, (a, b)) => a != b }.count()
      clusters.unpersist(blocking = false)
      clusters = next
      round += 1
    }
    if (changed > 0)
      throw new IllegalStateException(
        s"Hash-to-Min did not converge: $changed clusters still changing after $round rounds")
    // Note: the final `clusters` stays persisted as the parent of the
    // returned labels; callers materialize and drop it with the GC.
    clusters.mapValues(_.min)
  }
}
