package repro.util

/** Helpers for the paper tables in `repro.experiments`: wall-clock timing,
  * the averaging-run count and aligned table printing.
  */
object BenchUtil {

  /** Averaging runs of Fig. 7 and §IV-D: `REPRO_RUNS`, default 2 (paper: 10). */
  val runs: Int = sys.env.getOrElse("REPRO_RUNS", "2").toInt

  /** Evaluate `body`, returning (result, elapsedSeconds). */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Print an aligned table with a title. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println()
    println(s"=== $title ===")
    println(fmt(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(fmt(r)))
    println()
  }

  def f2(x: Double): String = f"$x%.2f"
  def f3(x: Double): String = f"$x%.3f"
}
