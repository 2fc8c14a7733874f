package repro.benchmark

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.SizeEstimator
import repro.core._
import repro.core.SparkRSLPA.RVState
import repro.dynamic.EditBatch
import repro.graph.{ConnectedComponents, GraphOps, LocalGraph}

/** The calls into each layer that the workloads make, each under the span
  * the per-layer metrics are named after. They call public functions of
  * the program in the order its own pipelines call them; `extractSpark`
  * notes the one step that has no public function.
  */
object Pipeline {

  def tag(batchSize: Int): String = if (batchSize >= 1000) s"b${batchSize / 1000}k" else s"b$batchSize"

  /** Seed of the `k`-th edit batch of a run. */
  def batchSeed(seed: Long, k: Int): Long = seed * 1000003L + 17L * k + 1

  // ---- local engine -------------------------------------------------------

  /** Graph to cover: what `LocalRSLPA.detect` does, one layer at a time. */
  def detectLocal(tr: Tracer, g: LocalGraph, T: Int, seed: Long): Vector[Set[Int]] = {
    val labels = tr.span("rslpa.propagate_labels")(LocalRSLPA.propagateLabelsOnly(g, T, seed))
    extractLocal(tr, g, labels)
  }

  /** What `PostProcess.extract` does, one layer at a time. */
  def extractLocal(tr: Tracer, g: LocalGraph, labels: Array[Array[Long]]): Vector[Set[Int]] = {
    val w = tr.span("post.edge_weights")(PostProcess.edgeWeights(g, labels))
    val tau2 = tr.span("post.tau2")(PostProcess.chooseTau2(g, w))
    val tau1 = tr.span("post.tau1")(PostProcess.chooseTau1(g, w, tau2))
    tr.span("post.extract")(PostProcess.extractAt(g, w, tau1, tau2))
  }

  def scratchLocal(tr: Tracer, g: LocalGraph, T: Int, seed: Long): RslpaState =
    tr.span("rslpa.propagate_records")(LocalRSLPA.propagate(g, T, seed))

  /** Number of labels whose value differs. */
  def changedLabels(before: Array[Array[Long]], after: Array[Array[Long]]): Long = {
    var c = 0L
    var i = 0
    while (i < before.length) {
      val a = before(i); val b = after(i)
      var t = 0
      while (t < a.length) { if (a(t) != b(t)) c += 1; t += 1 }
      i += 1
    }
    c
  }

  /** η̂ of Eq. 8 for `batch` applied to `g`. */
  def etaHat(g: LocalGraph, batch: EditBatch, T: Int): Double =
    ComplexityModel.expectedEta(T, g.n,
      ComplexityModel.pc(g.numEdges, batch.deletions.size.toLong, batch.insertions.size.toLong))

  /** Apply `batch` to `g` and update `st` in place with the local engine:
    * one operation, `LocalGraph.edited` then `LocalIncremental.update`,
    * timed as `metric`. Returns the edited graph.
    */
  def updateLocal(b: Bench, g: LocalGraph, st: RslpaState, batch: EditBatch, T: Int,
                  seed: Long, epoch: Long, metric: String): LocalGraph = {
    val tg = tag(batch.size)
    val before = st.labels.map(_.clone())
    val (g1, stats) = b.timed(metric, "update") {
      val g1 = b.tracer.span(s"graph.edit.$tg")(g.edited(batch.insertions, batch.deletions))
      (g1, b.tracer.span(s"incr.update.$tg")(LocalIncremental.update(g, g1, st, seed, epoch)))
    }
    localCounts(b, g, batch, T, before, st, stats)
    g1
  }

  /** The local engine's update of `st` from `g` to the already edited `g1`:
    * the reference the Spark engine is checked against, an untimed
    * operation.
    */
  def referenceUpdate(b: Bench, g: LocalGraph, g1: LocalGraph, st: RslpaState, batch: EditBatch,
                      T: Int, seed: Long, epoch: Long): Unit = {
    val before = st.labels.map(_.clone())
    val (stats, _) = b.op("reference") {
      b.tracer.span(s"ref.local_update.${tag(batch.size)}")(LocalIncremental.update(g, g1, st, seed, epoch))
    }
    localCounts(b, g, batch, T, before, st, stats)
  }

  /** η, measured by diffing the labels outside the operation, next to the
    * engine's own counters and η̂.
    */
  private def localCounts(b: Bench, g: LocalGraph, batch: EditBatch, T: Int,
                          before: Array[Array[Long]], st: RslpaState, stats: UpdateStats): Unit = {
    val tg = tag(batch.size)
    val eta = changedLabels(before, st.labels)
    b.layerSample(s"incr.eta.$tg", eta.toDouble)
    b.layerSample(s"incr.eta_hat.$tg", etaHat(g, batch, T))
    b.layerSample(s"incr.repicked.$tg", stats.repicked.toDouble)
    b.layerSample(s"incr.corrected.$tg", stats.corrected.toDouble)
    b.layerSample(s"incr.touched.$tg", stats.touched.toDouble)
    b.layerSample(s"incr.rounds.$tg", stats.rounds.toDouble)
    b.layerSample(s"incr.useful.$tg", if (stats.touched == 0) 0.0 else eta.toDouble / stats.touched)
  }

  /** Heap retained since `base` was measured, in MB, after a full collection. */
  def heapGrowthMb(base: Long): Double = (Bench.usedHeapAfterGc() - base) / 1048576.0

  // ---- Spark engine -------------------------------------------------------

  /** What `SparkRSLPA.propagate` does, one layer at a time, materialised. */
  def scratchSpark(tr: Tracer, sc: SparkContext, g: LocalGraph, T: Int, seed: Long,
                   parts: Int): RDD[(Long, RVState)] = {
    val adj = GraphOps.adjacencyRDD(sc, g)
    val labels = tr.span("spark.rslpa.propagate_labels")(SparkRSLPA.propagateLabels(adj, T, seed, parts))
    tr.span("spark.rslpa.with_records") {
      val st = SparkRSLPA.withRecords(labels, T, seed, parts).persist(StorageLevel.MEMORY_AND_DISK)
      st.count()
      st
    }
  }

  /** A cover from the Spark engine with the thresholds it chose. */
  final case class SparkCover(cover: Vector[Set[Int]], tau1: Double, tau2: Double)

  /** `SparkPostProcess.extract`, one layer at a time: edge weights, τ2, τ1,
    * then components at τ1 with the τ2 attachment of isolated vertices,
    * collected. The last step repeats the body of `extract`, which has no
    * public entry point of its own; the workload's cover check holds it to
    * the local engine's `PostProcess.extractAt` at the same thresholds.
    */
  def extractSpark(tr: Tracer, sc: SparkContext, g: LocalGraph, st: RDD[(Long, RVState)],
                   T: Int): SparkCover = {
    val labels = st.mapValues(_.labels)
    val edges = GraphOps.edgesRDD(sc, g)
    val (w, n) = tr.span("spark.post.edge_weights") {
      val w = SparkPostProcess.edgeWeights(labels, edges, T + 1).persist(StorageLevel.MEMORY_AND_DISK)
      w.count()
      (w, labels.count())
    }
    val tau2 = tr.span("spark.post.tau2")(SparkPostProcess.chooseTau2(w))
    val tau1 = tr.span("spark.post.tau1")(SparkPostProcess.chooseTau1(w, tau2, n))
    val assignments = tr.span("spark.post.extract") {
      val comp = ConnectedComponents.spark(w.collect { case ((u, v), x) if x >= tau1 => (u, v) })
      val sizes = comp.map { case (_, c) => (c, 1) }.reduceByKey(_ + _)
      val member = comp
        .map { case (v, c) => (c, v) }
        .join(sizes.filter(_._2 >= 2))
        .map { case (c, (v, _)) => (v, c) }
        .persist(StorageLevel.MEMORY_AND_DISK)
      val attach = w.filter(_._2 >= tau2)
        .flatMap { case ((u, v), _) => Iterator((u, v), (v, u)) }
        .leftOuterJoin(member)
        .collect { case (u, (v, None)) => (v, u) }
        .join(member)
        .map { case (_, (u, c)) => (u, c) }
      member.union(attach).distinct().collect()
    }
    val cover = assignments.groupBy(_._2).valuesIterator.map(_.map(_._1.toInt).toSet).toVector
    SparkCover(cover, tau1, tau2)
  }

  /** Label memories of a Spark state, indexed by vertex. */
  def collectLabels(st: RDD[(Long, RVState)], n: Int): Array[Array[Long]] = {
    val out = new Array[Array[Long]](n)
    st.map { case (i, s) => (i, s.labels) }.collect().foreach { case (i, l) => out(i.toInt) = l }
    out
  }

  /** In-memory size of a cached state, in MB: Spark's size estimate of
    * each record, summed. The storage memory Spark reports for the RDD
    * estimates whole blocks by sampling and varies by a fifth from run to
    * run.
    */
  def stateMb(st: RDD[(Long, RVState)]): Double =
    st.map(r => SizeEstimator.estimate(r).toDouble).sum() / 1048576.0

  /** Unpersist every cached RDD except `keep`. */
  def releaseExcept(sc: SparkContext, keep: RDD[_]*): Unit = {
    val ids = keep.map(_.id).toSet
    sc.getPersistentRDDs.foreach { case (id, r) => if (!ids(id)) r.unpersist(blocking = true) }
  }
}
