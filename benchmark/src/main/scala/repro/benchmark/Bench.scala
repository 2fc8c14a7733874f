package repro.benchmark

import scala.collection.mutable

/** The state of one benchmark run: end-to-end samples, per-layer samples,
  * attempted and failed operations, the environment stamp and the tracer.
  * A `warmUp` run does each kind of operation once, on the workload's
  * warm-up input, and is then discarded.
  */
final class Bench(val workload: String, val seed: Long, val seconds: Double, trace: Boolean,
                  val warmUp: Boolean = false) {
  val tracer = new Tracer(trace)
  val samples: mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]] = mutable.LinkedHashMap.empty
  val layer: mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]] = mutable.LinkedHashMap.empty
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
  val env: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap.empty
  var attempted = 0L
  /** Set-up time of this run; see `Main` for what it covers. */
  var setupSeconds = 0.0
  private var measureStart = System.nanoTime()

  def sample(metric: String, v: Double): Unit =
    samples.getOrElseUpdate(metric, mutable.ArrayBuffer.empty) += v

  def layerSample(metric: String, v: Double): Unit =
    layer.getOrElseUpdate(metric, mutable.ArrayBuffer.empty) += v

  /** One operation of the closed loop; returns its result and duration. */
  def op[A](name: String)(body: => A): (A, Double) = {
    attempted += 1
    val (r, s) = tracer.op(name)(body)
    (r, s.seconds)
  }

  /** One operation whose duration is a sample of `metric`. A full
    * collection first, outside the operation, so that garbage left by
    * earlier operations is not collected on this one's time.
    */
  def timed[A](metric: String, name: String)(body: => A): A = {
    System.gc()
    val (r, sec) = op(name)(body)
    sample(metric, sec)
    r
  }

  /** Count a violated output check as a failed operation. */
  def check(ok: Boolean, what: => String): Unit = if (!ok) failures += what

  def failed: Long = failures.size.toLong

  def startMeasuring(): Unit = measureStart = System.nanoTime()

  /** True while the run's measuring time is not used up. */
  def timeLeft: Boolean = (System.nanoTime() - measureStart) / 1e9 < seconds
}

object Bench {

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** The highest of the usual percentiles that has at least ten samples
    * beyond it, with its value; None when there are too few samples.
    */
  def tail(xs: Seq[Double]): Option[(Int, Double)] =
    Seq(99, 95, 90, 75, 50).find(p => xs.size * (100 - p) / 100.0 >= 10).map { p =>
      val s = xs.sorted
      (p, s(math.min(s.size - 1, math.ceil(p / 100.0 * s.size).toInt - 1)))
    }

  /** Heap in use after a full collection, in bytes. */
  def usedHeapAfterGc(): Long = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    rt.totalMemory() - rt.freeMemory()
  }
}
