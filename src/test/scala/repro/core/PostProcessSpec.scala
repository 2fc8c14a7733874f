package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PostFixtures._
import repro.graph.LocalGraph
import repro.util.SplitMix64

class PostProcessSpec extends AnyFunSuite {

  test("similarity counts matching draws") {
    // a=(1,1,2), b=(1,2,2): P(equal) = (2*1 + 1*2)/9 = 4/9.
    val s = similarity(Array(1L, 1L, 2L), Array(1L, 2L, 2L))
    assert(math.abs(s - 4.0 / 9) < 1e-12)
  }

  test("similarity of identical memories with one label is 1") {
    assert(similarity(Array(3L, 3L), Array(3L, 3L)) == 1.0)
  }

  test("similarity of disjoint memories is 0") {
    assert(similarity(Array(1L, 2L), Array(3L, 4L)) == 0.0)
  }

  test("similarity is symmetric") {
    val a = Array(1L, 2L, 2L, 5L); val b = Array(2L, 5L, 5L, 7L)
    assert(similarity(a, b) == similarity(b, a))
  }

  test("similarity matches a brute-force double loop") {
    val a = Array(1L, 2L, 3L, 2L, 1L); val b = Array(2L, 2L, 4L, 1L, 9L)
    var hits = 0
    for (x <- a; y <- b) if (x == y) hits += 1
    assert(math.abs(similarity(a, b) - hits / 25.0) < 1e-12)
    val rng = new SplitMix64(3)
    for (_ <- 0 until 50) {
      val c = Array.fill(1 + rng.nextInt(20))(rng.nextInt(6).toLong)
      val d = Array.fill(1 + rng.nextInt(20))(rng.nextInt(6).toLong)
      var n = 0
      for (x <- c; y <- d) if (x == y) n += 1
      assert(similarity(c, d) == n.toDouble / (c.length * d.length))
    }
  }

  test("edgeWeights computes similarity per edge") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val mems = Array(Array(1L, 1L), Array(1L, 2L), Array(2L, 2L))
    val w = asMap(PostProcess.edgeWeights(g, mems))
    assert(math.abs(w((0, 1)) - 0.5) < 1e-12)
    assert(math.abs(w((1, 2)) - 0.5) < 1e-12)
    assert(w.size == 2)
  }

  test("chooseTau2 is the min over vertices of the max incident weight") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val w = weights(Map((0, 1) -> 0.9, (1, 2) -> 0.2, (2, 3) -> 0.6))
    // best: v0=0.9, v1=0.9, v2=0.6, v3=0.6 → min = 0.6
    assert(PostProcess.chooseTau2(g, w) == 0.6)
  }

  test("componentsAt keeps only components with >= 2 vertices") {
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (3, 4)))
    val w = weights(Map((0, 1) -> 0.9, (1, 2) -> 0.1, (3, 4) -> 0.8))
    val comms = PostProcess.componentsAt(g, w, tau1 = 0.5)
    assert(comms.toSet == Set(Set(0, 1), Set(3, 4)))
  }

  test("chooseTau1 maximizes size entropy") {
    // Two triangles joined by a weak edge: τ1 above the weak weight yields
    // two communities (entropy ln 2); below it, one giant (entropy ~0).
    val g = LocalGraph.fromEdges(6,
      Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)))
    val w = weights(Map(
      (0, 1) -> 0.9, (1, 2) -> 0.9, (0, 2) -> 0.9,
      (3, 4) -> 0.9, (4, 5) -> 0.9, (3, 5) -> 0.9,
      (2, 3) -> 0.3))
    val tau1 = PostProcess.chooseTau1(g, w, tau2 = 0.1)
    assert(tau1 > 0.3 && tau1 <= 0.9, s"tau1=$tau1 should exclude the weak bridge")
    val comms = PostProcess.componentsAt(g, w, tau1)
    assert(comms.toSet == Set(Set(0, 1, 2), Set(3, 4, 5)))
  }

  test("extractAt attaches isolated vertices above tau2 (producing overlap)") {
    // Vertex 2 sits between two strong pairs; its edges are below τ1 but
    // above τ2, so it joins both communities — the overlap mechanism.
    val g = LocalGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val w = weights(Map((0, 1) -> 0.9, (1, 2) -> 0.5, (2, 3) -> 0.5, (3, 4) -> 0.9))
    val cover = PostProcess.extractAt(g, w, tau1 = 0.8, tau2 = 0.4)
    assert(cover.toSet == Set(Set(0, 1, 2), Set(2, 3, 4)))
  }

  test("extractAt does not attach below tau2") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    val w = weights(Map((0, 1) -> 0.9, (1, 2) -> 0.1))
    val cover = PostProcess.extractAt(g, w, tau1 = 0.8, tau2 = 0.4)
    assert(cover.toSet == Set(Set(0, 1)))
  }

  test("extractAt keeps disconnected strong components distinct") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    val w = weights(Map((0, 1) -> 0.9, (2, 3) -> 0.9))
    val cover = PostProcess.extractAt(g, w, tau1 = 0.5, tau2 = 0.2)
    assert(cover.toSet == Set(Set(0, 1), Set(2, 3)))
  }

  test("full extract on a two-clique graph finds both cliques") {
    val a = for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)
    val b = for (i <- 5 until 10; j <- i + 1 until 10) yield (i, j)
    val g = LocalGraph.fromEdges(10, a ++ b :+ (4, 5))
    val st = LocalRSLPA.propagate(g, T = 60, seed = 11)
    val cover = PostProcess.extract(g, st.labels)
    assert(cover.nonEmpty)
    val hasA = cover.exists(c => Set(0, 1, 2, 3).subsetOf(c))
    val hasB = cover.exists(c => Set(6, 7, 8, 9).subsetOf(c))
    assert(hasA && hasB, s"cover=$cover")
  }

  test("edgeWeights rejects a label outside [0, n), naming the vertex and the label") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))
    for (bad <- Seq(3L, -1L)) {
      val mems = Array(Array(0L, 1L), Array(1L, 1L), Array(2L, bad))
      val e = intercept[IllegalArgumentException](PostProcess.edgeWeights(g, mems))
      assert(e.getMessage.contains(s"vertex 2 holds label $bad outside [0, 3)"), e.getMessage)
    }
  }
}
