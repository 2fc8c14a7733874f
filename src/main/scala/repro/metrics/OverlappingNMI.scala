package repro.metrics

/** Normalized Mutual Information for *covers* (overlapping community
  * assignments), following Lancichinetti, Fortunato & Kertész (2009),
  * App. B — the measure conventionally paired with the LFR benchmark and
  * the one the paper's Fig. 7 scores are computed with.
  *
  * Each community is a binary random variable over the n vertices. For
  * covers X and Y:
  *   H(X_k | Y_l) is accepted only if h(11)+h(00) >= h(01)+h(10)
  *   (otherwise Y_l conveys no information about X_k and H(X_k|Y_l)=H(X_k));
  *   H(X_k | Y) = min_l H(X_k | Y_l);
  *   NMI = 1 - ( <H(X|Y)/H(X)> + <H(Y|X)/H(Y)> ) / 2.
  * Scores lie in [0, 1]; 1 means identical covers.
  */
object OverlappingNMI {

  private def h(p: Double): Double = if (p <= 0.0) 0.0 else -p * math.log(p)

  /** Conditional entropy H(Xk | Yl) or None if the LFK constraint rejects it. */
  private def condEntropy(xk: Set[Int], yl: Set[Int], n: Int): Option[Double] = {
    // |xk ∩ yl| without building it: look the smaller set up in the larger.
    val both = if (xk.size <= yl.size) xk.count(yl) else yl.count(xk)
    val d = both.toDouble / n                    // P(x=1, y=1)
    val c = (xk.size - both).toDouble / n        // P(x=1, y=0)
    val b = (yl.size - both).toDouble / n        // P(x=0, y=1)
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

  /** Normalized conditional entropy <H(X|Y)/H(X)> averaged over X's communities. */
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

  /** NMI between covers `x` and `y` over vertex universe of size `n`. */
  def score(x: Seq[Set[Int]], y: Seq[Set[Int]], n: Int): Double = {
    if (x.isEmpty || y.isEmpty) return 0.0
    1.0 - (normCond(x, y, n) + normCond(y, x, n)) / 2.0
  }
}
