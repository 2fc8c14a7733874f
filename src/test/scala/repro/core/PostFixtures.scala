package repro.core

import repro.graph.EdgeWeights

/** Map views of the post-processing kernels' arrays, for writing and
  * checking small cases by hand.
  */
object PostFixtures {

  def weights(m: Map[(Int, Int), Double]): EdgeWeights = {
    val es = m.toArray
    new EdgeWeights(es.map(_._1._1), es.map(_._1._2), es.map(_._2))
  }

  def asMap(w: EdgeWeights): Map[(Int, Int), Double] =
    (0 until w.size).map(k => (w.u(k), w.v(k)) -> w.w(k)).toMap

  /** The communities of a [[PostKernel.members]] array: its vertices
    * grouped by root, without the −1 ones.
    */
  def groups(member: Array[Int]): Set[Set[Int]] =
    member.indices.filter(member(_) >= 0).groupBy(member(_)).values.map(_.toSet).toSet

  /** Similarity of two memories: P(uniform draw from a == uniform draw from b),
    * through [[PostKernel.Scatter]] over `[0, max label + 1)`.
    */
  def similarity(a: Array[Long], b: Array[Long]): Double = {
    val scatter = new PostKernel.Scatter((a ++ b).max.toInt + 1)
    scatter.load(a)
    scatter.matches(b).toDouble / (a.length.toLong * b.length)
  }
}
