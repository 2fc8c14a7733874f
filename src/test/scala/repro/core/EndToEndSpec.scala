package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.dynamic.EditBatch
import repro.graph.GraphOps
import repro.lfr.{LFRGenerator, LFRParams}
import repro.metrics.OverlappingNMI
import repro.slpa.LocalSLPA

/** Integration tests covering the full paper pipeline. */
class EndToEndSpec extends AnyFunSuite with SparkSpec {

  private lazy val inst = LFRGenerator.generate(
    LFRParams(n = 400, avgDeg = 14, maxDeg = 40, mu = 0.1, on = 20, om = 2, seed = 80))

  test("rSLPA end-to-end on LFR beats a random cover") {
    val cover = LocalRSLPA.detect(inst.graph, T = 80, seed = 81)
    val nmi = OverlappingNMI.score(cover.map(_.toSet), inst.communities, inst.graph.n)
    val randomCover = inst.communities.map(c => c.map(v => (v * 7919) % inst.graph.n))
    val randomNmi = OverlappingNMI.score(randomCover, inst.communities, inst.graph.n)
    assert(nmi > randomNmi + 0.2, s"nmi=$nmi random=$randomNmi")
    assert(nmi > 0.45, s"nmi=$nmi")
  }

  test("rSLPA and SLPA produce covers of comparable quality on LFR (Fig. 7 sanity)") {
    val rCover = LocalRSLPA.detect(inst.graph, T = 80, seed = 82)
    val sCover = LocalSLPA.detect(inst.graph, T = 40, tau = 0.2, seed = 82)
    val rNmi = OverlappingNMI.score(rCover.map(_.toSet), inst.communities, inst.graph.n)
    val sNmi = OverlappingNMI.score(sCover.map(_.toSet), inst.communities, inst.graph.n)
    assert(rNmi > 0.4 && sNmi > 0.4, s"rSLPA=$rNmi SLPA=$sNmi")
  }

  test("incremental pipeline preserves community quality after a batch") {
    val g0 = inst.graph
    val st = LocalRSLPA.propagate(g0, T = 80, seed = 83)
    val batch = EditBatch.halfAndHalf(g0, 60, seed = 84)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    LocalIncremental.update(g0, g1, st, seed = 83, epoch = 1)
    val cover = PostProcess.extract(g1, st.labels)
    val nmi = OverlappingNMI.score(cover.map(_.toSet), inst.communities, g1.n)
    assert(nmi > 0.4, s"post-update NMI too low: $nmi")
  }

  test("distributed pipeline: propagate + correct + extract on Spark") {
    val sc = spark.sparkContext
    val g0 = LFRGenerator.generate(
      LFRParams(n = 150, avgDeg = 10, maxDeg = 30, mu = 0.1, on = 10, om = 2, seed = 85)).graph
    val T = 20
    val st0 = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g0), T, seed = 86)
    val batch = EditBatch.halfAndHalf(g0, 20, seed = 87)
    val g1 = g0.edited(batch.insertions, batch.deletions)
    val (st1, stats) = SparkCorrection.update(st0, GraphOps.adjacencyRDD(sc, g1), T, 86, 1)
    assert(stats.repicked > 0)
    val cover = SparkPostProcess.extract(
      st1.mapValues(_.labels), GraphOps.edgesRDD(sc, g1), T + 1)
    assert(cover.cover.nonEmpty, "expected at least one community")
    assert(cover.cover.forall(_.size >= 2))
  }
}
