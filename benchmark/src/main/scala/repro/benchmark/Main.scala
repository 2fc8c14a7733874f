package repro.benchmark

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession

import scala.collection.immutable.ListMap
import scala.collection.mutable

/** Runs one workload and prints its result.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
  * }}}
  *
  * Set-up (`setup_s`) is the SparkSession where one is used, the median
  * of three generations of the input, a warm-up pass of the workload, and
  * the base state where the workload builds one before measuring.
  *
  * The last line of standard output is one JSON object: `correct`,
  * `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
  * the per-layer metrics traced). `--out` receives the full result: the
  * environment stamp, every sample, every operation and, traced, every
  * span with its self time.
  */
object Main {

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "detect_s" -> "s", "scratch_s" -> "s",
    "update_b100_s" -> "s", "update_b1k_s" -> "s", "state_mb" -> "MB", "nmi" -> "ratio")

  private val tags = Workloads.Batches.map(Pipeline.tag)

  /** Local layer spans, reported as `<span>_s`. */
  val LocalSpans: Seq[String] =
    Seq("rslpa.propagate_labels", "rslpa.propagate_records", "post.edge_weights", "post.tau2",
      "post.tau1", "post.extract", "nmi.score") ++
      Seq("graph.edit", "incr.update", "ref.local_update").flatMap(s => tags.map(t => s"$s.$t"))

  /** Spark layer spans, reported with their listener counts. */
  val SparkSpans: Seq[String] =
    Seq("spark.rslpa.propagate_labels", "spark.rslpa.with_records", "spark.post.edge_weights",
      "spark.post.tau2", "spark.post.tau1", "spark.post.extract") ++ tags.map(t => s"spark.incr.update.$t")

  val SparkFields: Seq[(String, String)] = Seq(
    "wall_s" -> "s", "jobs" -> "count", "stages" -> "count", "tasks" -> "count",
    "shuffle_records" -> "count", "shuffle_bytes" -> "bytes", "task_s" -> "s", "busy" -> "ratio")

  /** Per-batch counters, reported as `<name>.<batch>`. */
  val Counters: Seq[String] =
    Seq("incr.repicked", "incr.touched", "incr.rounds", "incr.corrected", "incr.eta", "incr.eta_hat",
      "incr.useful", "spark.incr.repicked", "spark.incr.corrected_reported", "spark.incr.rounds",
      "spark.incr.eta")

  val TraceMetrics: Seq[(String, String)] =
    Seq("trace.coverage" -> "ratio", "trace.bookkeeping_s" -> "s", "trace.overhead_share" -> "ratio")

  /** Every per-layer metric with its unit, in report order. */
  val PerLayer: Seq[(String, String)] =
    LocalSpans.map(s => s"${s}_s" -> "s") ++
      SparkSpans.flatMap(s => SparkFields.map { case (f, u) => s"$s.$f" -> u }) ++
      Counters.flatMap(c => tags.map(t => s"$c.$t" -> (if (c.endsWith("useful")) "ratio" else "count"))) ++
      TraceMetrics

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val w = Workloads.byName(need("workload"))
      .getOrElse(usage(s"unknown workload ${need("workload")}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    val b = new Bench(w.name, need("seed").toLong, need("seconds").toDouble, trace)
    var spark: Option[SparkSession] = None
    try {
      if (w.usesSpark) {
        val (s, sec) = Bench.timed(session())
        spark = Some(s)
        b.setupSeconds += sec
      }
      val sc = spark.map(_.sparkContext)
      val gens = (1 to 3).map(_ => Bench.timed(w.generate(b.seed)))
      val in = gens.last._1
      val (_, warmSec) = Bench.timed(
        w.measure(new Bench(w.name, b.seed, 0, false, warmUp = true), w.warmUpInput(b.seed, gens.head._1), sc))
      b.setupSeconds += warmSec + Bench.median(gens.map(_._2))
      sc.foreach(b.tracer.attachSpark)
      w.measure(b, in, sc)
      b.sample("setup_s", b.setupSeconds)
      stampEnv(b, w, sc, w.stamp(in))
    } finally spark.foreach(_.stop())

    val metrics = if (trace) perLayer(b) else endToEnd(b)
    report(b, metrics)
    opts.get("out").foreach(p => Files.write(Paths.get(p), Json(result(b, metrics)).getBytes(StandardCharsets.UTF_8)))
    println(Json(Map(
      "correct" -> b.failures.isEmpty,
      "attempted" -> b.attempted,
      "failed" -> b.failed,
      "metrics" -> ListMap(metrics.map { case (n, (v, u)) => n -> Map("value" -> v, "unit" -> u) }: _*))))
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]")
    sys.exit(2)
  }

  private def session(): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("repro-benchmark")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def stampEnv(b: Bench, w: Workload, sc: Option[SparkContext], input: Seq[(String, Any)]): Unit = {
    b.env ++= Seq(
      "workload" -> w.name, "seed" -> b.seed, "seconds" -> b.seconds, "trace" -> b.tracer.enabled,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "xmx_mb" -> Runtime.getRuntime.maxMemory() / 1048576,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark_master" -> sc.map(_.master).getOrElse("none"),
      "spark_version" -> sc.map(_.version).getOrElse("none"),
      "git_sha" -> sys.props.getOrElse("repro.bench.git", "unknown"),
      "source_digest" -> sys.props.getOrElse("repro.bench.digest", "unknown"),
      "T" -> w.T, "batch_sizes" -> Workloads.Batches)
    b.env ++= input
  }

  private def endToEnd(b: Bench): Seq[(String, (Double, String))] =
    EndToEnd.map { case (n, u) =>
      val xs = b.samples.getOrElse(n, throw new IllegalStateException(s"no samples of $n"))
      n -> (Bench.median(xs.toSeq), u)
    }

  /** Medians over the run of each layer span and counter; 0 for a layer
    * the workload does not call.
    */
  private def perLayer(b: Bench): Seq[(String, (Double, String))] = {
    val tr = b.tracer
    val byName = tr.spans.filter(_.parent >= 0).groupBy(_.name)
    def med(xs: Iterable[Double]) = if (xs.isEmpty) 0.0 else Bench.median(xs.toSeq)
    val values = mutable.Map.empty[String, Double]
    LocalSpans.foreach(s => values(s"${s}_s") = med(byName.getOrElse(s, Nil).map(_.seconds)))
    for (s <- SparkSpans; (f, _) <- SparkFields) {
      val spans = byName.getOrElse(s, Nil)
      values(s"$s.$f") = med(spans.map(sp => if (f == "wall_s") sp.seconds else sp.counts.getOrElse(f, 0.0)))
    }
    for (c <- Counters; t <- tags) values(s"$c.$t") = med(b.layer.getOrElse(s"$c.$t", Nil))
    // An operation's layer spans cover its time except the glue between
    // calls and the tracer's own bookkeeping.
    val ops = tr.spans.filter(_.parent < 0)
    values("trace.coverage") = med(ops.filter(_.seconds > 0).map { o =>
      val net = o.seconds - o.bookkeepingNs / 1e9
      (o.seconds - tr.selfSeconds(o)) / net
    })
    values("trace.bookkeeping_s") = med(ops.map(_.bookkeepingNs / 1e9))
    // Filled in by the wrapper from untraced results of the same checkout.
    values("trace.overhead_share") = 0.0
    PerLayer.map { case (n, u) => n -> (values(n), u) }
  }

  private def report(b: Bench, metrics: Seq[(String, (Double, String))]): Unit = {
    println(s"# ${b.workload} seed=${b.seed} trace=${b.tracer.enabled}: " +
      s"${b.attempted} operations, ${b.failed} failed")
    b.failures.foreach(f => println(s"# FAILED: $f"))
    println(s"# env ${Json(b.env.toMap)}")
    if (!b.tracer.enabled) b.samples.foreach { case (n, xs) =>
      val tail = Bench.tail(xs.toSeq).map { case (p, v) => f"p$p=$v%.4f" }
        .getOrElse("no percentile has 10 samples beyond it")
      println(f"# $n%-14s median ${Bench.median(xs.toSeq)}%.4f ${EndToEnd.toMap.getOrElse(n, "")} " +
        s"(n=${xs.size}; $tail)")
    }
    else metrics.foreach { case (n, (v, u)) => if (v != 0.0) println(f"# $n%-42s $v%.6g $u") }
  }

  private def result(b: Bench, metrics: Seq[(String, (Double, String))]): Map[String, Any] = {
    val tr = b.tracer
    Map(
      "env" -> b.env.toMap,
      "correct" -> b.failures.isEmpty, "attempted" -> b.attempted, "failed" -> b.failed,
      "failures" -> b.failures.toSeq,
      "metrics" -> metrics.map { case (n, (v, u)) => n -> Map("value" -> v, "unit" -> u) }.toMap,
      "samples" -> b.samples.map { case (n, xs) =>
        n -> Map("median" -> Bench.median(xs.toSeq), "n" -> xs.size,
          "tail" -> Bench.tail(xs.toSeq).map { case (p, v) => Map("percentile" -> p, "value" -> v) }.orNull,
          "values" -> xs.toSeq)
      }.toMap,
      "layer_samples" -> b.layer.map { case (n, xs) => n -> xs.toSeq }.toMap,
      "spans" -> tr.spans.map { s =>
        Map("id" -> s.id, "parent" -> s.parent, "op" -> s.op, "name" -> s.name,
          "wall_s" -> s.seconds, "self_s" -> tr.selfSeconds(s), "bookkeeping_s" -> s.bookkeepingNs / 1e9,
          "counts" -> s.counts.toMap)
      }.toSeq)
  }
}

/** Minimal JSON writer for maps, sequences, strings, numbers and booleans. */
object Json {
  def apply(v: Any): String = v match {
    case null          => "null"
    case s: String     => quote(s)
    case b: Boolean    => b.toString
    case d: Double     => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float      => apply(f.toDouble)
    case n: Int        => n.toString
    case n: Long       => n.toString
    case m: Map[_, _]  => m.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Seq[_]    => xs.map(apply).mkString("[", ", ", "]")
    case other         => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
    sb.toString
  }
}
