package repro.slpa

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.util.Rng

/** Distributed SLPA as keyed-RDD message passing, following the
  * parallelized SLPA of Kuzmin et al. [15] adapted to the MapReduce model
  * (§V-B2 of the paper): every iteration each vertex emits one label *per
  * edge* (speaker role) and reduces its inbox by plurality (listener role).
  * Communication is O(|E|) per iteration — the cost rSLPA's Algorithm 1
  * reduces to O(|V|).
  *
  * Uses the same per-`(vertex, iteration)` RNG streams as [[LocalSLPA]],
  * so outputs are bit-identical to the local engine under the same seed.
  */
object SparkSLPA {

  /** Vertex state: sorted neighbor ids + label memory so far. */
  final case class VState(nbrs: Array[Long], labels: Array[Long]) extends Serializable

  /** Run `T` iterations over adjacency `(vid, sortedNeighbors)`.
    * Returns `(vid, memory)` with memories of length `T + 1`.
    */
  def propagate(adj: RDD[(Long, Array[Long])], T: Int, seed: Long): RDD[(Long, Array[Long])] = {
    val part = new HashPartitioner(adj.sparkContext.defaultParallelism)
    var state: RDD[(Long, VState)] = adj
      .map { case (v, ns) => (v, VState(ns.sorted, Array(v))) }
      .partitionBy(part)
      .persist(StorageLevel.MEMORY_AND_DISK)
    state.count()

    var t = 1
    while (t <= T) {
      val tt = t
      val msgs = state.flatMap { case (j, st) =>
        val rng = Rng.forVertex(seed, j, tt, Rng.SaltSend)
        st.nbrs.iterator.map(i => (i, st.labels(rng.nextInt(tt))))
      }
      // Keys are untouched: preserve the partitioner so the vertex state
      // never reshuffles — only the per-edge label messages move.
      val next = state
        .cogroup(msgs, part)
        .mapPartitions(
          _.map { case (i, (sts, received)) =>
            val st = sts.head
            val chosen = LocalSLPA.selectLabel(i, tt, received.toSeq, seed)
            (i, VState(st.nbrs, st.labels :+ chosen))
          },
          preservesPartitioning = true
        )
        .persist(StorageLevel.MEMORY_AND_DISK)
      if (t % 10 == 0 || t == T) { next.localCheckpoint(); next.count() }
      else next.count()
      state.unpersist(blocking = false)
      state = next
      t += 1
    }
    state.mapValues(_.labels)
  }
}
