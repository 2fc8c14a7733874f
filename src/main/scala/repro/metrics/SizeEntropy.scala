package repro.metrics

/** Information entropy of relative community sizes (paper Eq. 1):
  *   entropy = - Σ_i (|C_i|/|V|) log(|C_i|/|V|)
  * used by rSLPA post-processing to select τ1 — the threshold that yields
  * neither a dust of micro-communities nor one giant component.
  */
object SizeEntropy {
  /** Entropy of the communities of at least two vertices, given
    * `bySize(s)` = the number of communities of size `s`; summed in
    * ascending size order.
    */
  def ofSizeCounts(bySize: Array[Int], n: Int): Double = {
    require(n > 0)
    var e = 0.0
    var s = 2
    while (s < bySize.length) {
      if (bySize(s) > 0) {
        val p = s.toDouble / n
        e += bySize(s) * (-p * math.log(p))
      }
      s += 1
    }
    e
  }
}
