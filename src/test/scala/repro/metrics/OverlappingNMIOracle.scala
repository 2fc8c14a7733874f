package repro.metrics

/** [[OverlappingNMI.score]] with every intersection built as a set: the
  * oracle for the counting version in main code.
  */
object OverlappingNMIOracle {

  private def h(p: Double): Double = if (p <= 0.0) 0.0 else -p * math.log(p)

  private def condEntropy(xk: Set[Int], yl: Set[Int], n: Int): Option[Double] = {
    val d = (xk & yl).size.toDouble / n          // P(x=1, y=1)
    val c = (xk.size - (xk & yl).size).toDouble / n // P(x=1, y=0)
    val b = (yl.size - (xk & yl).size).toDouble / n // P(x=0, y=1)
    val a = 1.0 - b - c - d                      // P(x=0, y=0)
    if (h(d) + h(a) >= h(b) + h(c)) {
      val hXY = h(a) + h(b) + h(c) + h(d)
      val hY  = h(b + d) + h(a + c)
      Some(hXY - hY)
    } else None
  }

  private def entropy(xk: Set[Int], n: Int): Double = {
    val p = xk.size.toDouble / n
    h(p) + h(1.0 - p)
  }

  private def normCond(x: Seq[Set[Int]], y: Seq[Set[Int]], n: Int): Double = {
    require(x.nonEmpty, "cover must be non-empty")
    val terms = x.map { xk =>
      val hx = entropy(xk, n)
      val hCond = y.flatMap(yl => condEntropy(xk, yl, n)) match {
        case Seq() => hx
        case cs    => cs.min
      }
      if (hx == 0.0) 0.0 else hCond / hx
    }
    terms.sum / terms.size
  }

  def score(x: Seq[Set[Int]], y: Seq[Set[Int]], n: Int): Double = {
    if (x.isEmpty || y.isEmpty) return 0.0
    1.0 - (normCond(x, y, n) + normCond(y, x, n)) / 2.0
  }
}
