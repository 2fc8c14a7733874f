package repro.lfr

import org.scalatest.funsuite.AnyFunSuite

class LFRGeneratorSpec extends AnyFunSuite {

  private val p = LFRParams(n = 1000, avgDeg = 15, maxDeg = 50, mu = 0.1,
                            on = 100, om = 2, seed = 3)
  private lazy val inst = LFRGenerator.generate(p)

  test("graph has the requested vertex count") {
    assert(inst.graph.n == 1000)
  }

  test("average degree is close to the target") {
    val avg = 2.0 * inst.graph.numEdges / inst.graph.n
    assert(math.abs(avg - p.avgDeg) < p.avgDeg * 0.25, s"avg degree $avg vs target ${p.avgDeg}")
  }

  test("max degree does not exceed maxDeg by much") {
    val maxDeg = (0 until inst.graph.n).map(inst.graph.degree).max
    // Configuration-model retries can add a handful of extra edges.
    assert(maxDeg <= p.maxDeg + 5, s"max degree $maxDeg exceeds ${p.maxDeg}")
  }

  test("roughly `on` vertices hold om memberships") {
    val m = inst.membershipOf
    val multi = m.count(_.size >= 2)
    assert(multi > 50 && multi <= 120, s"overlapping vertices: $multi (target ${p.on})")
  }

  test("non-overlapping vertices hold at most one membership") {
    val m = inst.membershipOf
    val tooMany = m.count(_.size > p.om)
    assert(tooMany == 0, s"$tooMany vertices exceed om=${p.om} memberships")
  }

  test("communities respect the size range approximately") {
    inst.communities.foreach { c =>
      assert(c.size >= 2 && c.size <= LFRGenerator.MaxCommunity + p.om * 2,
        s"community size ${c.size} out of range")
    }
  }

  test("every vertex belongs to at least one community") {
    val covered = inst.communities.foldLeft(Set.empty[Int])(_ ++ _)
    val uncovered = (0 until p.n).count(!covered(_))
    // The trimming of community sizes can strand a few vertices.
    assert(uncovered < p.n / 100, s"$uncovered vertices uncovered")
  }

  test("observed mixing is close to mu") {
    val m = inst.membershipOf
    var internal = 0L; var total = 0L
    inst.graph.edges.foreach { case (u, v) =>
      total += 1
      if (m(u).exists(m(v).contains)) internal += 1
    }
    val mixing = 1.0 - internal.toDouble / total
    assert(mixing < p.mu + 0.1, s"observed mixing $mixing vs target ${p.mu}")
  }

  test("deterministic in seed") {
    val a = LFRGenerator.generate(p)
    val b = LFRGenerator.generate(p)
    assert(a.graph.edges == b.graph.edges && a.communities == b.communities)
  }

  test("different seeds give different graphs") {
    val a = LFRGenerator.generate(p.copy(seed = 1))
    val b = LFRGenerator.generate(p.copy(seed = 2))
    assert(a.graph.edges != b.graph.edges)
  }

  test("higher mu yields more inter-community edges") {
    def mixing(mu: Double): Double = {
      val i = LFRGenerator.generate(p.copy(mu = mu, seed = 11))
      val m = i.membershipOf
      val ext = i.graph.edges.count { case (u, v) => !m(u).exists(m(v).contains) }
      ext.toDouble / i.graph.numEdges
    }
    assert(mixing(0.3) > mixing(0.05))
  }

  test("om > 2 produces vertices with that many memberships") {
    val i = LFRGenerator.generate(p.copy(om = 4, on = 50, seed = 12))
    val maxMem = i.membershipOf.map(_.size).max
    assert(maxMem >= 3, s"expected some vertex with >=3 memberships, max=$maxMem")
  }

  test("degenerate parameters are rejected") {
    intercept[IllegalArgumentException](LFRParams(10, 3, 5, 1.5, 0, 1))
    intercept[IllegalArgumentException](LFRParams(10, 3, 5, 0.1, 20, 1))
  }
}
