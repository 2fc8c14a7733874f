package repro.benchmark

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.{BenchmarkBridge, SparkContext}
import org.apache.spark.scheduler._

import scala.collection.mutable

/** One timed interval. Spans of one operation share `op`; the operation's
  * own span is the root (`parent == -1`).
  */
final class Span(val id: Int, val parent: Int, val op: Int, val name: String, val start: Long) {
  var end: Long = start
  /** Time the tracer spent on its own bookkeeping inside this span. */
  var bookkeepingNs: Long = 0L
  val counts: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  def seconds: Double = (end - start) / 1e9
}

/** Spark work of one job group, summed from listener events. */
final class SparkWork {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var shuffleRecords = 0L
  var shuffleBytes = 0L
  var taskMs = 0L
}

/** Attributes jobs, stages and tasks to the job group that was set when
  * their job started. Events arrive on Spark's listener thread; readers
  * drain the bus first.
  */
final class SparkCounters extends SparkListener {
  private val byGroup = new ConcurrentHashMap[String, SparkWork]()
  private val stageGroup = new ConcurrentHashMap[Int, String]()

  private def work(group: String): SparkWork = byGroup.computeIfAbsent(group, _ => new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    for (p <- Option(e.properties); g <- Option(p.getProperty("spark.jobGroup.id"))) {
      work(g).jobs += 1
      e.stageIds.foreach(s => stageGroup.put(s, g))
    }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageGroup.get(e.stageInfo.stageId)).foreach(g => work(g).stages += 1)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (g <- Option(stageGroup.get(e.stageId)); m <- Option(e.taskMetrics)) {
      val w = work(g)
      w.tasks += 1
      w.taskMs += m.executorRunTime
      w.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      w.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }

  def take(group: String): SparkWork = Option(byGroup.remove(group)).getOrElse(new SparkWork)
}

/** In-memory span recorder. Operation spans are always recorded, because
  * the end-to-end metrics are their durations; layer spans, Spark job
  * groups and listener counts only when `enabled` (the traced run).
  */
final class Tracer(val enabled: Boolean) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var stack: List[Span] = Nil
  private var nextOp = 0
  private var spark: Option[(SparkContext, SparkCounters)] = None

  def attachSpark(sc: SparkContext): Unit = if (enabled) {
    val c = new SparkCounters
    sc.addSparkListener(c)
    spark = Some((sc, c))
  }

  private def group(s: Span): String = s"span-${s.id}"

  private def open(name: String, op: Int): Span = {
    val s = new Span(spans.size, stack.headOption.map(_.id).getOrElse(-1), op, name, System.nanoTime())
    spans += s
    stack = s :: stack
    if (enabled) spark.foreach { case (sc, _) => sc.setJobGroup(group(s), name) }
    s
  }

  private def close(s: Span): Unit = {
    s.end = System.nanoTime()
    stack = stack.tail
    spark.foreach { case (sc, counters) =>
      BenchmarkBridge.drainListenerBus(sc)
      val w = counters.take(group(s))
      if (w.jobs > 0) {
        val cores = sc.defaultParallelism
        s.counts ++= Seq(
          "jobs" -> w.jobs.toDouble, "stages" -> w.stages.toDouble, "tasks" -> w.tasks.toDouble,
          "shuffle_records" -> w.shuffleRecords.toDouble, "shuffle_bytes" -> w.shuffleBytes.toDouble,
          "task_s" -> w.taskMs / 1e3, "busy" -> w.taskMs / 1e3 / (s.seconds * cores))
      }
      stack.headOption match {
        case Some(p) => sc.setJobGroup(group(p), p.name)
        case None    => sc.clearJobGroup()
      }
    }
    stack.headOption.foreach(_.bookkeepingNs += System.nanoTime() - s.end)
  }

  /** Run one operation under a fresh operation id; returns its span. */
  def op[A](name: String)(body: => A): (A, Span) = {
    require(stack.isEmpty, s"operation $name nested in ${stack.head.name}")
    val s = open(name, nextOp)
    nextOp += 1
    val r = try body finally close(s)
    (r, s)
  }

  /** A layer span inside the current operation (a no-op when untraced). */
  def span[A](name: String)(body: => A): A =
    if (!enabled || stack.isEmpty) body
    else {
      val s = open(name, stack.head.op)
      try body finally close(s)
    }

  /** Span duration minus the time its child spans cover. */
  def selfSeconds(s: Span): Double = {
    val kids = spans.iterator.filter(_.parent == s.id).map(c => (c.start, c.end)).toSeq.sortBy(_._1)
    var covered = 0L; var reach = s.start
    kids.foreach { case (a, b) =>
      val lo = math.max(a, reach)
      if (b > lo) { covered += b - lo; reach = b }
    }
    s.seconds - covered / 1e9
  }
}
