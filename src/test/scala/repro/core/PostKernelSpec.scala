package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PostFixtures._
import repro.graph.{ConnectedComponents, EdgeWeights, LocalGraph, SpanningForest}
import repro.metrics.SizeEntropyOracle
import repro.util.SplitMix64

import scala.collection.mutable

/** The shared post-processing kernels against straightforward oracles. */
class PostKernelSpec extends AnyFunSuite {

  /** The τ1 search the sweep replaced: one connected-components probe per
    * grid point, kept here as the oracle.
    */
  private def probeTau1(n: Int, w: Map[(Int, Int), Double], tau2: Double): Double = {
    if (w.isEmpty) return tau2
    val maxW = w.values.max
    val eff = math.max((maxW - tau2) / 60, 1e-9)
    var best = tau2; var bestEnt = -1.0
    var tau = tau2
    while (tau <= maxW + 1e-12) {
      val kept = w.iterator.collect { case (e, x) if x >= tau => e }.toSeq
      val sizes = ConnectedComponents.local(n, kept).groupBy(identity).values.map(_.length).filter(_ >= 2)
      val ent = SizeEntropyOracle.of(sizes.toSeq, n)
      if (ent > bestEnt + 1e-12) { bestEnt = ent; best = tau }
      tau += eff
    }
    best
  }

  /** A random graph on `n` vertices whose weights repeat: each is one of
    * `levels` values. Vertices without an edge stay isolated.
    */
  private def randomWeights(rng: SplitMix64, n: Int, m: Int, levels: Int): Map[(Int, Int), Double] =
    (0 until m).flatMap { _ =>
      val a = rng.nextInt(n); val b = rng.nextInt(n)
      if (a == b) None else Some((math.min(a, b), math.max(a, b)) -> (1 + rng.nextInt(levels)).toDouble / 97)
    }.toMap

  /** Split `w` into `parts` pieces, keep each piece's maximum spanning forest. */
  private def forests(n: Int, w: EdgeWeights, parts: Int): EdgeWeights = {
    val fs = (0 until parts).map { p =>
      val ks = (0 until w.size).filter(_ % parts == p).toArray
      SpanningForest.local(n, new EdgeWeights(ks.map(w.u), ks.map(w.v), ks.map(w.w)))
    }
    new EdgeWeights(fs.flatMap(_.u).toArray, fs.flatMap(_.v).toArray, fs.flatMap(_.w).toArray)
  }

  /** Components (≥ 2 vertices) of the edges of `w` with weight ≥ τ, by
    * breadth-first search.
    */
  private def bfsComponents(n: Int, w: Map[(Int, Int), Double], tau: Double): Set[Set[Int]] = {
    val adj = Array.fill(n)(List.empty[Int])
    for (((a, b), x) <- w if x >= tau) { adj(a) ::= b; adj(b) ::= a }
    val seen = new Array[Boolean](n)
    (0 until n).iterator.filterNot(seen).map { s =>
      seen(s) = true
      val comp = mutable.ArrayBuffer(s)
      var i = 0
      while (i < comp.length) {
        for (x <- adj(comp(i)) if !seen(x)) { seen(x) = true; comp += x }
        i += 1
      }
      comp.toSet
    }.filter(_.size >= 2).toSet
  }

  for (parts <- Seq(1, 2, 3, 7)) {
    test(s"members over partition forests gives the BFS components at every weight (parts=$parts)") {
      val rng = new SplitMix64(900 + parts)
      for (_ <- 0 until 10) {
        val n = 5 + rng.nextInt(60)
        val map = randomWeights(rng, n, rng.nextInt(3 * n), 1 + rng.nextInt(8))
        val w = weights(map)
        val f = forests(n, w, parts)
        for (tau <- map.values.toSet[Double]) {
          val oracle = bfsComponents(n, map, tau)
          assert(groups(PostKernel.members(n, w, tau)) == oracle, s"all of w: n=$n m=${w.size} tau=$tau")
          assert(groups(PostKernel.members(n, f, tau)) == oracle, s"forests: n=$n m=${w.size} tau=$tau")
        }
      }
    }
  }

  test("edge weights equal the brute-force count over label pairs / len^2") {
    val rng = new SplitMix64(31)
    for (memLen <- Seq(1, 2, 13, 201); _ <- 0 until 5) {
      val n = 2 + rng.nextInt(40)
      // Vertices n - 2 and n - 1 get no edges; labels repeat (few distinct ids).
      val es = Seq.fill(rng.nextInt(3 * n)) { (rng.nextInt(math.max(n - 2, 1)), rng.nextInt(math.max(n - 2, 1))) }
      val g = LocalGraph.fromEdges(n, es)
      val distinct = 1 + rng.nextInt(n)
      val labels = Array.fill(n)(Array.fill(memLen)(rng.nextInt(distinct).toLong))
      val w = PostProcess.edgeWeights(g, labels)
      assert(w.size == g.numEdges)
      for (k <- 0 until w.size) {
        val a = labels(w.u(k)); val b = labels(w.v(k))
        var hits = 0L
        for (x <- a; y <- b) if (x == y) hits += 1
        assert(w.w(k) == hits.toDouble / (memLen.toLong * memLen), s"edge (${w.u(k)}, ${w.v(k)}) memLen=$memLen")
      }
    }
  }

  for (seed <- 0 until 8) {
    test(s"chooseTau1 equals the probe-per-grid-point search (seed=$seed)") {
      val rng = new SplitMix64(100 + seed)
      val n = 5 + rng.nextInt(60)
      val m = rng.nextInt(3 * n)
      val levels = 1 + rng.nextInt(12)
      val map = randomWeights(rng, n, m, levels)
      val w = weights(map)
      val maxW = if (map.isEmpty) 0.0 else map.values.max
      val tau2s = Seq(0.0, maxW, maxW / 3, if (map.isEmpty) 0.0 else map.values.min)
      for (tau2 <- tau2s)
        assert(PostKernel.chooseTau1(n, w, tau2) == probeTau1(n, map, tau2), s"tau2=$tau2 n=$n m=${w.size}")
    }
  }

  test("chooseTau1 on an edgeless graph returns tau2") {
    assert(PostKernel.chooseTau1(7, weights(Map.empty[(Int, Int), Double]), 0.25) == 0.25)
    assert(probeTau1(7, Map.empty, 0.25) == 0.25)
  }

  test("chooseTau1 with a single weight level and tau2 = max w returns tau2") {
    val map = Map((0, 1) -> 0.5, (1, 2) -> 0.5, (4, 5) -> 0.5)
    assert(PostKernel.chooseTau1(8, weights(map), 0.5) == 0.5)
    assert(probeTau1(8, map, 0.5) == 0.5)
  }

  test("a spanning forest keeps at most n - 1 edges") {
    val rng = new SplitMix64(7)
    val w = weights(randomWeights(rng, 30, 200, 5))
    val f = SpanningForest.local(30, w)
    assert(f.size <= 29)
    assert(f.size < w.size)
  }

  /** τ2 by its definition (Eq. 2): the minimum over vertices with an edge of
    * the maximum incident weight.
    */
  private def bruteTau2(w: Map[(Int, Int), Double]): Double = {
    val best = w.toSeq.flatMap { case ((u, v), x) => Seq(u -> x, v -> x) }
      .groupMapReduce(_._1)(_._2)(math.max)
    if (best.isEmpty) 0.0 else best.values.min
  }

  for (parts <- Seq(1, 2, 3, 7)) {
    test(s"tau2 over partition forests equals the brute-force tau2 (parts=$parts)") {
      val rng = new SplitMix64(700 + parts)
      for (_ <- 0 until 20) {
        val n = 5 + rng.nextInt(60)
        val map = randomWeights(rng, n, rng.nextInt(3 * n), 1 + rng.nextInt(6))
        val w = weights(map)
        assert(PostKernel.tau2(n, forests(n, w, parts)) == bruteTau2(map), s"n=$n m=${w.size}")
        assert(PostKernel.tau2(n, w) == bruteTau2(map))
      }
    }
  }

  for (parts <- Seq(1, 2, 3, 7)) {
    test(s"the sweep over partition forests picks the full sweep's tau1 (parts=$parts)") {
      val rng = new SplitMix64(500 + parts)
      for (_ <- 0 until 10) {
        val n = 10 + rng.nextInt(50)
        val w = weights(randomWeights(rng, n, rng.nextInt(4 * n), 1 + rng.nextInt(20)))
        val f = forests(n, w, parts)
        val tau2 = if (w.size == 0) 0.0 else w.w.min
        assert(PostKernel.chooseTau1(n, f, tau2) == PostKernel.chooseTau1(n, w, tau2))
      }
    }
  }
}
