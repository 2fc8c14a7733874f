package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

/** Connected components.
  *
  * The paper's post-processing finds communities as connected components of
  * the similarity-filtered graph, citing Chitnis et al. (ICDE 2013) for a
  * MapReduce algorithm in O(log d) rounds. We implement its Hash-to-Min
  * on Spark RDDs — each round is a Map + ReduceByKey, converging to the
  * minimum vertex id of each component — plus a local union–find used by
  * the local engine and as the test oracle for the distributed version.
  */
object ConnectedComponents {

  /** Local union–find; returns component representative per vertex
    * (minimum id in the component).
    */
  def local(n: Int, edges: Iterable[(Int, Int)]): Array[Int] = {
    val parent = Array.tabulate(n)(identity)
    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    edges.foreach { case (u, v) =>
      val ru = find(u); val rv = find(v)
      if (ru != rv) { if (ru < rv) parent(rv) = ru else parent(ru) = rv }
    }
    // Normalize to the minimum id per component.
    val repMin = scala.collection.mutable.HashMap.empty[Int, Int]
    (0 until n).foreach { v => val r = find(v); repMin(r) = math.min(repMin.getOrElse(r, v), v) }
    Array.tabulate(n)(v => repMin(find(v)))
  }

  /** Distributed CC via Hash-to-Min (the algorithm of the paper's
    * reference [18], Chitnis et al., ICDE 2013): every vertex keeps a
    * cluster `C_v` (initially its closed neighborhood); each round it sends
    * `C_v` to `min(C_v)` and `{min(C_v)}` to every other member, then
    * unions what it received. Converges in O(log n) rounds, after which
    * `min(C_v)` is the component minimum for every vertex.
    *
    * Returns `(vertex, componentMinId)` for every vertex appearing in
    * `edges`.
    */
  def spark(edges: RDD[(Long, Long)]): RDD[(Long, Long)] = {
    var clusters: RDD[(Long, Set[Long])] = edges
      .flatMap { case (u, v) => Iterator((u, Set(u, v)), (v, Set(u, v))) }
      .reduceByKey(_ ++ _)
      .persist(StorageLevel.MEMORY_AND_DISK)

    var changed = 1L
    var round = 0
    val maxRounds = 64
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
    // Note: the final `clusters` stays persisted as the parent of the
    // returned labels; callers materialize and drop it with the GC.
    clusters.mapValues(_.min)
  }
}
