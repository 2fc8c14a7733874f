package repro.experiments

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{SparkCorrection, SparkPostProcess, SparkRSLPA}
import repro.dynamic.EditBatch
import repro.graph.{GraphGen, GraphOps, LocalGraph}
import repro.slpa.SparkSLPA
import repro.util.BenchUtil
import repro.util.BenchUtil.{f2, timed}

/** The paper's efficiency evaluation (Figs. 8–9) on the distributed
  * engines, over an RMAT power-law substitute for the eu-2015-tpd crawl
  * (6.65M nodes / 170M edges on 7 servers) sized for `local[*]` (DESIGN.md).
  */
object EfficiencyExperiments {

  /** rSLPA from scratch with records, its labels from the paper's
    * per-iteration Algorithm 1 (the baseline every gate reads) or from
    * pointer jumping (the extra row or column).
    */
  private def scratch(sc: SparkContext, g: LocalGraph, T: Int, seed: Long,
                      perIteration: Boolean): RDD[(Long, SparkRSLPA.RVState)] = {
    val adj = GraphOps.adjacencyRDD(sc, g)
    val parts = sc.defaultParallelism
    val labels =
      if (perIteration) SparkRSLPA.propagateLabelsPerIteration(adj, T, seed, parts)
      else SparkRSLPA.propagateLabels(adj, T, seed, parts)
    SparkRSLPA.withRecords(labels, T, seed, parts)
  }

  final case class Figure8Row(algo: String, iters: Int,
                              propagateSec: Double, perIterSec: Double,
                              postSec: Double, totalSec: Double)

  /** Fig. 8 — static running time: label propagation and post-processing
    * for SLPA (T iterations) and rSLPA (2T: the paper's 100:200 ratio, both
    * scaled down), rSLPA once per iteration as in the paper and once by
    * pointer jumping. Scale, raw edges and T: `REPRO_F8_SCALE/EDGES/T`.
    */
  object Figure8 {
    val Scale = sys.env.getOrElse("REPRO_F8_SCALE", "17").toInt
    val RawEdges = sys.env.getOrElse("REPRO_F8_EDGES", "1500000").toLong
    val SlpaT = sys.env.getOrElse("REPRO_F8_T", "20").toInt

    def run(spark: SparkSession): Seq[Figure8Row] = {
      val g = GraphGen.webGraphLocal(Scale, RawEdges, seed = 2015)._2
      println(s"web-graph substitute: |V|=${g.n} |E|=${g.numEdges}")
      val sc = spark.sparkContext
      val seed = 8L
      val rslpaT = 2 * SlpaT

      val (slpaMem, slpaProp) = timed {
        val m = SparkSLPA.propagate(GraphOps.adjacencyRDD(sc, g), SlpaT, seed)
        m.persist(); m.count(); m
      }
      // SLPA post-processing: per-vertex thresholding (a single map + the
      // label->community grouping) — cheap, as the paper observes.
      val (_, slpaPost) = timed {
        slpaMem.flatMap { case (v, mem) =>
          val counts = mem.groupBy(identity).view.mapValues(_.length)
          counts.collect { case (l, c) if c.toDouble / mem.length >= Figure7Experiments.SlpaTau => (l, v) }
        }.groupByKey().filter(_._2.size >= 2).count()
      }

      // The state is persisted inside the propagation timing, so
      // post-processing reads it instead of rebuilding its receiver records.
      // Post-processing (edge weights + τ selection + components at τ1) is
      // the expensive part, as the paper observes.
      def rslpa(algo: String, perIteration: Boolean): Figure8Row = {
        val (st, prop) = timed {
          val st = scratch(sc, g, rslpaT, seed + 1, perIteration).persist(StorageLevel.MEMORY_AND_DISK)
          st.count(); st
        }
        val (_, post) = timed {
          SparkPostProcess.extract(st.mapValues(_.labels), GraphOps.edgesRDD(sc, g), rslpaT + 1).cover.size
        }
        st.unpersist()
        Figure8Row(algo, rslpaT, prop, prop / rslpaT, post, prop + post)
      }

      Seq(
        Figure8Row("SLPA", SlpaT, slpaProp, slpaProp / SlpaT, slpaPost, slpaProp + slpaPost),
        rslpa("rSLPA", perIteration = true),
        rslpa("rSLPA (pointer jumping)", perIteration = false)
      )
    }

    def print(rows: Seq[Figure8Row]): Unit =
      BenchUtil.printTable(
        "Fig. 8 — static running time (seconds); paper: rSLPA prop >2x faster, SLPA post much faster",
        Seq("algorithm", "iterations", "label prop (s)", "per-iter (s)", "post-proc (s)", "total (s)"),
        rows.map(r => Seq(r.algo, r.iters.toString, f2(r.propagateSec),
          f2(r.perIterSec), f2(r.postSec), f2(r.totalSec))))
  }

  final case class Figure9Row(batchSize: Int, incrementalSec: Double, scratchSec: Double,
                              scratchJumpingSec: Double, repicked: Long, corrected: Long)

  /** Fig. 9 — incremental updating vs running from scratch per batch size,
    * half insertions / half deletions picked uniformly (§V-B1); the paper's
    * 100..100,000 on 170M edges becomes 100..10,000, so the batch/|E| ratios
    * cover the same range. Scratch is the paper's per-iteration Algorithm 1,
    * with pointer jumping timed beside it. Scale, raw edges and T:
    * `REPRO_F9_SCALE/EDGES/T`.
    */
  object Figure9 {
    val Scale = sys.env.getOrElse("REPRO_F9_SCALE", "14").toInt
    val RawEdges = sys.env.getOrElse("REPRO_F9_EDGES", "200000").toLong
    val T = sys.env.getOrElse("REPRO_F9_T", "200").toInt
    val Batches = Seq(100, 1000, 10000)

    def run(spark: SparkSession): Seq[Figure9Row] = {
      val g = GraphGen.webGraphLocal(Scale, RawEdges, seed = 2015)._2
      println(s"web-graph substitute: |V|=${g.n} |E|=${g.numEdges}")
      val sc = spark.sparkContext
      val seed = 9L
      val base = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g), T, seed)
      base.persist(); base.count()

      // Warm-up pass (JIT + shuffle infrastructure) so the first measured
      // batch is not charged for first-touch costs.
      locally {
        val wb = EditBatch.halfAndHalf(g, 10, seed = seed + 5)
        val gw = g.edited(wb.insertions, wb.deletions)
        SparkCorrection.update(base, GraphOps.adjacencyRDD(sc, gw), T, seed, epoch = 999)._1.count()
      }

      Batches.zipWithIndex.map { case (b, i) =>
        val batch = EditBatch.halfAndHalf(g, b, seed = seed + 31 * (i + 1))
        val g1 = g.edited(batch.insertions, batch.deletions)
        val ((_, stats), incSec) = timed {
          val (st, s) = SparkCorrection.update(base, GraphOps.adjacencyRDD(sc, g1),
            T, seed, epoch = i + 1)
          st.count()
          (st, s)
        }
        val (_, scratchSec) = timed(scratch(sc, g1, T, seed + 997 + i, perIteration = true).count())
        val (_, jumpingSec) = timed(scratch(sc, g1, T, seed + 997 + i, perIteration = false).count())
        Figure9Row(b, incSec, scratchSec, jumpingSec, stats.repicked, stats.corrected)
      }
    }

    def print(rows: Seq[Figure9Row]): Unit =
      BenchUtil.printTable(
        "Fig. 9 — incremental vs scratch (seconds); paper: incremental wins, sublinear in batch",
        Seq("batch", "incremental (s)", "scratch (s)", "speedup", "scratch, pointer jumping (s)",
          "repicked", "corrected"),
        rows.map(r => Seq(r.batchSize.toString, f2(r.incrementalSec), f2(r.scratchSec),
          f2(r.scratchSec / r.incrementalSec), f2(r.scratchJumpingSec),
          r.repicked.toString, r.corrected.toString)))
  }
}
