package repro.benchmark

import java.lang.ref.Reference

import org.apache.spark.SparkContext
import repro.benchmark.Pipeline._
import repro.core.{LocalRSLPA, PostProcess, SparkCorrection}
import repro.dynamic.EditBatch
import repro.graph.{GraphGen, GraphOps, LocalGraph}
import repro.lfr.{LFRGenerator, LFRInstance, LFRParams}
import repro.metrics.OverlappingNMI

/** A workload: inputs made from the seed, and a closed loop with one
  * client (each operation waits for the previous one) that runs its fixed
  * operations and then keeps going while the run's time lasts.
  */
sealed trait Workload {
  type In
  def name: String
  def T: Int
  def usesSpark: Boolean = false
  /** The workload's inputs. */
  def generate(seed: Long): In
  /** The input of the warm-up pass, given the generated one. */
  def warmUpInput(seed: Long, in: In): In
  def stamp(in: In): Seq[(String, Any)]
  /** Build any base state (its time counts as set-up), then run the loop. */
  def measure(b: Bench, in: In, sc: Option[SparkContext]): Unit
}

object Workloads {

  val Batches: Seq[Int] = Seq(100, 1000)

  val all: Seq[Workload] = Seq(LfrDetectLocal, WebEditsSpark)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  private def batchMetric(size: Int): String = s"update_${tag(size)}_s"

  private def graphStamp(g: LocalGraph): Seq[(String, Any)] =
    Seq("vertices" -> g.n, "edges" -> g.numEdges)

  /** Table I LFR graph, local engine. Each cycle detects and scores a
    * cover of the generated graph, whose time is mostly post-processing,
    * then applies three 100-edit batches and one 1,000-edit batch to one
    * base state that is chained through the whole run, and times a scratch
    * propagation of the edited graph.
    */
  object LfrDetectLocal extends Workload {
    type In = LFRInstance
    val name = "lfr-detect-local"
    val T = 200
    /** Cycles run whatever the time; their detections give the NMI, so
      * its value does not depend on speed.
      */
    val Cycles = 2
    /** Batch sizes of one cycle: 100-edit batches are cheap and vary most. */
    val CycleBatches: Seq[Int] = Seq(100, 100, 100, 1000)
    val NmiFloor = 0.6

    def generate(seed: Long): LFRInstance =
      LFRGenerator.generate(LFRParams(n = 10000, avgDeg = 30, maxDeg = 100, mu = 0.1, on = 1000, om = 2, seed = seed))

    /** The generated graph itself: a reduced one leaves the JIT with
      * profiles that make later operations slower by varying amounts.
      */
    def warmUpInput(seed: Long, in: LFRInstance): LFRInstance = in

    def stamp(in: LFRInstance): Seq[(String, Any)] =
      graphStamp(in.graph) :+ ("communities" -> in.communities.size)

    def measure(b: Bench, in: LFRInstance, sc: Option[SparkContext]): Unit = {
      val g0 = in.graph
      val (st, baseSec) = Bench.timed(LocalRSLPA.propagate(g0, T, b.seed))
      b.setupSeconds += baseSec
      b.startMeasuring()
      var g = g0
      var c = 0
      var k = 0
      while (c < (if (b.warmUp) 1 else Cycles) || b.timeLeft) {
        val cover = b.timed("detect_s", "detect")(detectLocal(b.tracer, g0, T, b.seed + c))
        val (nmi, _) = b.op("score")(b.tracer.span("nmi.score")(OverlappingNMI.score(cover, in.communities, g0.n)))
        if (c < Cycles) b.sample("nmi", nmi)
        b.check(nmi > NmiFloor, f"cycle $c: NMI $nmi%.4f is not above $NmiFloor")
        (if (b.warmUp) Batches else CycleBatches).foreach { size =>
          val batch = EditBatch.halfAndHalf(g, size, batchSeed(b.seed, k))
          g = updateLocal(b, g, st, batch, T, b.seed, k + 1, batchMetric(size))
          k += 1
        }
        val heap0 = Bench.usedHeapAfterGc()
        val s2 = b.timed("scratch_s", "scratch")(scratchLocal(b.tracer, g, T, b.seed))
        b.sample("state_mb", heapGrowthMb(heap0))
        Reference.reachabilityFence(s2)
        c += 1
      }
      val errs = st.checkInvariants(g.adj)
      b.check(errs.isEmpty, s"invariants after $k batches: ${errs.size} errors, first: ${errs.headOption.getOrElse("")}")
    }
  }

  /** The Fig. 9 RMAT graph on the Spark engine at a reduced T: a scratch
    * state of the generated graph, chained updates of it checked against
    * the local engine after every batch, then extraction from the updated
    * state and a from-scratch detection of the final graph. The graph has
    * no planted communities, so each cover is scored against the local
    * engine's extraction of the same labels at the same thresholds: the
    * NMI reads 1 while the engines agree.
    */
  object WebEditsSpark extends Workload {
    type In = LocalGraph
    val name = "web-edits-spark"
    val T = 20
    /** Batches run whatever the time; the NMI is taken after them, so its
      * value does not depend on speed.
      */
    val Chain = 2
    override def usesSpark: Boolean = true

    def generate(seed: Long): LocalGraph = GraphGen.webGraphLocal(14, 200000, seed)._2

    /** A reduced graph: Spark's cost per job hardly depends on the input,
      * and a warm-up pass on the full graph would double the set-up time.
      */
    def warmUpInput(seed: Long, in: LocalGraph): LocalGraph = GraphGen.webGraphLocal(10, 12000, seed)._2
    def stamp(g: LocalGraph): Seq[(String, Any)] = graphStamp(g)

    private def checkLabels(b: Bench, spark: Array[Array[Long]], local: Array[Array[Long]], when: String): Unit = {
      val bad = spark.indices.count(i => !java.util.Arrays.equals(spark(i), local(i)))
      b.check(bad == 0, s"$when: Spark labels differ from the local engine at $bad vertices")
    }

    /** Score the Spark cover against the local engine's extraction at the
      * thresholds Spark chose, from the same labels; they must be equal.
      */
    private def scoreCover(b: Bench, g: LocalGraph, labels: Array[Array[Long]], c: SparkCover, when: String): Unit = {
      val local = PostProcess.extractAt(g, PostProcess.edgeWeights(g, labels), c.tau1, c.tau2)
      b.check(local.toSet == c.cover.toSet,
        s"$when: Spark cover (${c.cover.size} communities) differs from the local extraction (${local.size})")
      val (nmi, _) = b.op("score")(b.tracer.span("nmi.score")(OverlappingNMI.score(c.cover, local, g.n)))
      b.sample("nmi", nmi)
    }

    /** Graph to cover on the Spark engine, one operation; its scratch
      * part is a `scratch_s` sample too.
      */
    private def detect(b: Bench, ctx: SparkContext, g: LocalGraph): SparkCover =
      b.timed("detect_s", "detect") {
        val (st, sec) = Bench.timed(scratchSpark(b.tracer, ctx, g, T, b.seed, ctx.defaultParallelism))
        b.sample("scratch_s", sec)
        extractSpark(b.tracer, ctx, g, st, T)
      }

    def measure(b: Bench, g0: LocalGraph, sc: Option[SparkContext]): Unit = {
      val ctx = sc.getOrElse(throw new IllegalStateException(s"$name needs a SparkContext"))
      val parts = ctx.defaultParallelism
      b.startMeasuring()
      var g = g0
      var st = b.timed("scratch_s", "scratch")(scratchSpark(b.tracer, ctx, g, T, b.seed, parts))
      b.sample("state_mb", stateMb(st))
      releaseExcept(ctx, st)
      val ref = LocalRSLPA.propagate(g, T, b.seed)
      var labels = collectLabels(st, g.n)
      checkLabels(b, labels, ref.labels, "scratch")
      var k = 0
      def step(): Unit = {
        val size = Batches(k % Batches.size)
        val tg = tag(size)
        val batch = EditBatch.halfAndHalf(g, size, batchSeed(b.seed, k))
        val (g1, st1, stats) = b.timed(batchMetric(size), "update") {
          val g1 = b.tracer.span(s"graph.edit.$tg")(g.edited(batch.insertions, batch.deletions))
          val (st1, stats) = b.tracer.span(s"spark.incr.update.$tg") {
            val r = SparkCorrection.update(st, GraphOps.adjacencyRDD(ctx, g1), T, b.seed, k + 1, parts)
            r._1.count()
            r
          }
          (g1, st1, stats)
        }
        b.sample("state_mb", stateMb(st1))
        val after = collectLabels(st1, g.n)
        b.layerSample(s"spark.incr.eta.$tg", changedLabels(labels, after).toDouble)
        b.layerSample(s"spark.incr.corrected_reported.$tg", stats.corrected.toDouble)
        b.layerSample(s"spark.incr.repicked.$tg", stats.repicked.toDouble)
        b.layerSample(s"spark.incr.rounds.$tg", stats.rounds.toDouble)
        referenceUpdate(b, g, g1, ref, batch, T, b.seed, k + 1)
        checkLabels(b, after, ref.labels, s"batch $k ($size edits)")
        releaseExcept(ctx, st1)
        st = st1; g = g1; labels = after
        k += 1
      }
      while (k < (if (b.warmUp) 1 else Chain)) step()
      if (b.warmUp) { releaseExcept(ctx); return }
      // Extraction reads the state the updates wrote. This first
      // extraction of the run is not an end-to-end sample, so it also warms
      // extraction up for `detect`.
      val (incr, _) = b.op("extract")(extractSpark(b.tracer, ctx, g, st, T))
      scoreCover(b, g, labels, incr, "extraction from the updated state")
      releaseExcept(ctx, st)
      val scratch = detect(b, ctx, g)
      scoreCover(b, g, LocalRSLPA.propagateLabelsOnly(g, T, b.seed), scratch, "detection on the final graph")
      while (b.timeLeft) step()
      releaseExcept(ctx)
    }
  }
}
