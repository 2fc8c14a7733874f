package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.SparkRSLPA.{Chains, PropState}
import repro.graph.{GraphGen, GraphOps, LocalGraph}

class SparkRSLPASpec extends AnyFunSuite with SparkSpec {

  private def sc = spark.sparkContext

  private val Parts = Seq(1, 3, 8)

  private def assertStateMatches(local: RslpaState,
                                 dist: Map[Long, SparkRSLPA.RVState]): Unit = {
    assert(dist.size == local.n)
    for (i <- 0 until local.n) {
      val d = dist(i.toLong)
      assert(d.labels.toSeq == local.labels(i).toSeq, s"labels differ at $i")
      assert(d.srcs.drop(1).map(_.toInt).toSeq == local.srcs(i).drop(1).toSeq, s"srcs differ at $i")
      assert(d.poss.drop(1).toSeq == local.poss(i).drop(1).toSeq, s"poss differ at $i")
      for (p <- 0 until d.recv.length) {
        val dr = d.recv(p).map { case (tar, k) => (tar.toInt, k) }.toSet
        assert(dr == local.receivers(i, p).toSet, s"recv differ at ($i,$p)")
      }
    }
  }

  /** Pointer jumping and the per-iteration baseline at 1, 3 and 8
    * partitions (per iteration at 3 only when T > 20, as each of its T
    * rounds is one job): each result keeps the hash partitioning, its labels
    * equal [[LocalRSLPA.propagateLabelsOnly]] and, with records, its state
    * equals [[LocalRSLPA.propagate]].
    */
  private def assertSparkPathsMatchLocal(g: LocalGraph, T: Int, seed: Long): Unit = {
    val local = LocalRSLPA.propagate(g, T, seed)
    val labelsOnly = LocalRSLPA.propagateLabelsOnly(g, T, seed)
    val adj = GraphOps.adjacencyRDD(sc, g)
    val paths = Seq[(String, Int => RDD[(Long, PropState)])](
      "pointer jumping" -> (SparkRSLPA.propagateLabels(adj, T, seed, _)),
      "per iteration" -> (SparkRSLPA.propagateLabelsPerIteration(adj, T, seed, _)))
    for (parts <- Parts; (name, run) <- paths if name != "per iteration" || T <= 20 || parts == 3) {
      withClue(s"$name, parts=$parts, T=$T: ") {
        val labels = run(parts)
        assert(labels.partitioner.contains(new HashPartitioner(parts)))
        val got = labels.collect().toMap
        assert(got.size == g.n)
        (0 until g.n).foreach(i => assert(got(i.toLong).labels.toSeq == labelsOnly(i).toSeq, s"labels differ at $i"))
        assertStateMatches(local, SparkRSLPA.withRecords(labels, T, seed, parts).collect().toMap)
        labels.unpersist()
      }
    }
  }

  test("spark rSLPA state is bit-identical to local on a small graph") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (2, 3)))
    for (T <- Seq(1, 8)) assertSparkPathsMatchLocal(g, T, seed = 21)
    val local = LocalRSLPA.propagate(g, T = 8, seed = 21)
    val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g), 8, 21)
      .collect().toMap
    assertStateMatches(local, dist)
  }

  for (seed <- Seq(1L, 2L)) {
    test(s"spark rSLPA matches local on a random power-law graph (seed=$seed)") {
      val g = GraphGen.webGraphLocal(7, 350, seed = seed)._2
      assertSparkPathsMatchLocal(g, 10, seed * 17)
    }
  }

  test("spark rSLPA handles isolated vertices (self-picks)") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1))) // 2, 3 isolated
    val dist = SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g), 6, 5)
      .collect().toMap
    assert(dist(2L).labels.forall(_ == 2L))
    assert(dist(3L).labels.forall(_ == 3L))
    for (T <- Seq(1, 6)) assertSparkPathsMatchLocal(g, T, 5)
  }

  test("spark rSLPA memory lengths are T+1") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    for (T <- Seq(1, 9))
      SparkRSLPA.propagate(GraphOps.adjacencyRDD(sc, g), T, 6)
        .collect()
        .foreach { case (_, st) =>
          assert(st.labels.length == T + 1 && st.srcs.length == T + 1 && st.poss.length == T + 1)
        }
  }

  /** The slot `k` hops along the chain from `(i, t)`, stopping at a slot
    * with `pos == 0`.
    */
  private def walk(local: RslpaState, i: Int, t: Int, k: Int): (Int, Int) = {
    var (a, b, left) = (i, t, k)
    while (left > 0 && b > 0) {
      val (s, p) = (local.srcs(a)(b), local.poss(a)(b))
      a = s; b = p; left -= 1
    }
    (a, b)
  }

  private def ceilLog2(x: Int): Int = 32 - Integer.numberOfLeadingZeros(math.max(x, 1) - 1)

  for (iterations <- Seq(1, 200)) {
    test(s"pointer jumping takes ceil(log2 L) rounds, each jumping twice as far (T = $iterations)") {
      val T = iterations
      val g =
        if (T == 1) LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (2, 0), (3, 4)))
        else GraphGen.webGraphLocal(10, 3000, seed = 1)._2 // longest chain 18 hops
      val seed = 13L
      val local = LocalRSLPA.propagate(g, T, seed)
      val hops = for (i <- 0 until g.n; t <- 1 to T)
        yield Iterator.iterate((i, t))(x => walk(local, x._1, x._2, 1)).indexWhere(_._2 == 0)
      val rounds = ceilLog2(hops.max)
      if (T == 1) assert(rounds == 0) else assert(rounds >= 5, s"longest chain ${hops.max} hops")

      // After r rounds slot t has moved `steps(r, t)` hops along its chain:
      // 2^r when every open slot jumps; to its end for t <= r and not at all
      // above when round r advances slot r + 1 only. Every round is checked
      // under pointer jumping, the first four and the last per iteration.
      val adj = GraphOps.adjacencyRDD(sc, g)
      val part = new HashPartitioner(3)
      val schedules = Seq[(SparkRSLPA.Schedule, Int, Int, (Int, Int) => Int)](
        (SparkRSLPA.jumping(T), rounds, rounds, (r, _) => 1 << r),
        (SparkRSLPA.perIteration(T), T, math.min(T, 4), (r, t) => if (t <= r) T else 1))
      for ((schedule, expected, stepped, steps) <- schedules) withClue(s"${schedule.name}: ") {
        def check(table: RDD[(Long, Chains)], r: Int): Unit = {
          val got = table.collect().toMap
          for (i <- 0 until g.n; t <- 0 to T) {
            val c: Chains = got(i.toLong)
            assert((c.src(t).toInt, c.pos(t)) == walk(local, i, t, steps(r, t)),
              s"round $r, slot ($i, $t)")
          }
        }
        var table = SparkRSLPA.picks(adj, T, seed, part).persist()
        check(table, 0)
        for (r <- 0 until stepped) {
          val next = SparkRSLPA.jump(table, schedule.slots(r)).persist()
          check(next, r + 1)
          table.unpersist()
          table = next
        }
        table.unpersist()
        val (resolved, taken) = SparkRSLPA.resolve(SparkRSLPA.picks(adj, T, seed, part), T, schedule)
        assert(taken == expected)
        check(resolved, taken)
        resolved.unpersist()
      }
      assertSparkPathsMatchLocal(g, T, seed)
    }
  }

  test("pointer jumping throws on a table that ceil(log2 T) + 1 rounds cannot resolve") {
    // (0, 1) -> (1, 1) -> (0, 1): a cycle, which no table of picks holds;
    // every other slot is resolved.
    for (T <- Seq(1, 4)) {
      def row(i: Long) = Chains(Array(1L - i), Array.tabulate(T + 1)(t => if (t == 1) 1L - i else i),
        Array.tabulate(T + 1)(t => if (t == 1) 1 else 0))
      val cyclic = sc.parallelize(Seq(0L -> row(0L), 1L -> row(1L))).partitionBy(new HashPartitioner(2))
      for (schedule <- Seq(SparkRSLPA.jumping(T), SparkRSLPA.perIteration(T))) {
        val e = intercept[IllegalStateException](SparkRSLPA.resolve(cyclic, T, schedule))
        assert(e.getMessage ==
          s"${schedule.name} left 2 label slots unresolved after ${schedule.cap} rounds (T = $T)")
      }
      assert(SparkRSLPA.jumping(T).cap == ceilLog2(T) + 1 && SparkRSLPA.perIteration(T).cap == T)
      cyclic.unpersist()
    }
  }

  private def sparse(v: Long): Long = v * (1L << 33) + 5

  test("with sparse vertex ids both spark paths give equal states (parts=1/3/8)") {
    val g = GraphGen.webGraphLocal(7, 350, seed = 4)._2
    val adj = sc.parallelize((0 until g.n).map(i => (sparse(i), g.adj(i).map(v => sparse(v)))))
    val T = 10
    for (parts <- Parts) withClue(s"parts=$parts: ") {
      val jumped = SparkRSLPA.propagateLabels(adj, T, 31, parts)
      val iterated = SparkRSLPA.propagateLabelsPerIteration(adj, T, 31, parts)
      val a = SparkRSLPA.withRecords(jumped, T, 31, parts).collect().toMap
      val b = SparkRSLPA.withRecords(iterated, T, 31, parts).collect().toMap
      assert(a.keySet == (0 until g.n).map(i => sparse(i)).toSet && a.keySet == b.keySet)
      for ((v, x) <- a; y = b(v)) {
        assert(x.nbrs.toSeq == y.nbrs.toSeq && x.labels.toSeq == y.labels.toSeq, s"row $v")
        assert(x.srcs.toSeq == y.srcs.toSeq && x.poss.toSeq == y.poss.toSeq, s"picks of $v")
        assert(x.recv.map(_.toSet).toSeq == y.recv.map(_.toSet).toSeq, s"records of $v")
      }
      jumped.unpersist(); iterated.unpersist()
    }
  }
}
