package repro.core

import repro.util.Rng

/** The canonical random decisions of rSLPA, shared verbatim by the local
  * and Spark engines so both produce bit-identical results under a seed.
  */
object Picks {

  /** Algorithm 1's pick for vertex `vid` at iteration `t`:
    * `(neighborIndex, pos)` with the index uniform over the *sorted*
    * adjacency array and `pos` uniform in `[0, t)`. A degree-0 vertex
    * self-picks (`(-1, 0)` — callers substitute `src = vid`).
    */
  def pickIdx(deg: Int, vid: Long, t: Int, seed: Long): (Int, Int) = {
    if (deg == 0) (-1, 0)
    else {
      val rng = Rng.forVertex(seed, vid, t, Rng.SaltPropagate)
      (rng.nextInt(deg), rng.nextInt(t))
    }
  }

  /** How the neighborhood of `vid` changed in an edit batch, from one
    * merge of its old and new adjacency (both sorted). Built once per
    * vertex; [[NeighborDiff.repick]] then decides each position.
    */
  def diff(oldAdj: Array[Long], newAdj: Array[Long], vid: Long): NeighborDiff = {
    val added = new scala.collection.mutable.ArrayBuilder.ofLong
    var nU = 0
    var j = 0
    for (v <- newAdj) {
      while (j < oldAdj.length && oldAdj(j) < v) j += 1
      if (j < oldAdj.length && oldAdj(j) == v) nU += 1 else added += v
    }
    new NeighborDiff(vid, newAdj, added.result(), nU,
      wasIsolated = oldAdj.isEmpty, unchanged = java.util.Arrays.equals(oldAdj, newAdj))
  }
}

/** The neighborhood diff of one vertex (see [[Picks.diff]]): its sorted new
  * adjacency, the sorted neighbors it gained, and `nU`, the number of
  * neighbors it kept.
  */
final class NeighborDiff private[core] (vid: Long, newAdj: Array[Long], added: Array[Long],
                                        nU: Int, wasIsolated: Boolean, unchanged: Boolean) {

  /** The §IV-A re-pick decision for position `t` after an edit batch
    * (Categories 1–3, Theorems 4/5). `Some((src, pos))` means the pick must
    * change to the returned values; `None` keeps the existing pick.
    * `epoch` separates successive batches. O(log d).
    */
  def repick(t: Int, curSrc: Long, seed: Long, epoch: Long): Option[(Long, Int)] = {
    if (unchanged) return None // Category 1
    lazy val rng = Rng.forVertex(seed ^ (epoch * 0x9e3779b97f4a7c15L), vid, t, Rng.SaltRepick)

    def fresh(candidates: Array[Long]): Option[(Long, Int)] =
      if (candidates.isEmpty) Some((vid, 0)) // became isolated: self-pick
      else Some((candidates(rng.nextInt(candidates.length)), rng.nextInt(t)))

    if (curSrc == vid && wasIsolated) {
      // Previously isolated: every current neighbor is new.
      if (newAdj.isEmpty) None else fresh(newAdj)
    } else if (java.util.Arrays.binarySearch(newAdj, curSrc) < 0) {
      fresh(newAdj) // source edge deleted → uniform over all current neighbors
    } else if (added.isEmpty) {
      None // Category 2, source survived: keep (Theorem 4)
    } else {
      // Category 3, source survived: keep w.p. n_u / (n_u + n_a),
      // else uniform among the *new* neighbors (Theorem 5).
      if (rng.nextDouble() < nU.toDouble / (nU + added.length)) None
      else fresh(added)
    }
  }
}
