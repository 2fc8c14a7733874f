package repro.metrics

/** Eq. 1 summed straight from a list of community sizes: the oracle for
  * [[SizeEntropy.ofSizeCounts]]. Sizes of 0 are ignored.
  */
object SizeEntropyOracle {
  def of(sizes: Seq[Int], n: Int): Double = {
    require(n > 0)
    sizes.iterator.filter(_ > 0).map { s =>
      val p = s.toDouble / n
      -p * math.log(p)
    }.sum
  }
}
