package repro.lfr

import repro.graph.LocalGraph
import repro.util.{Rng, SplitMix64}

import scala.collection.mutable

/** Parameters of the LFR-style benchmark — the selected subset the paper
  * lists in Table I. The community-size range, which the paper leaves
  * implicit, is fixed at the LFR defaults ([[LFRGenerator.MinCommunity]],
  * [[LFRGenerator.MaxCommunity]]).
  *
  * @param n    number of vertices (paper: N)
  * @param avgDeg  average degree (paper: k)
  * @param maxDeg  maximum degree (paper: maxk)
  * @param mu      mixing parameter — fraction of each vertex's edges that
  *                leave all of its own communities
  * @param on      number of overlapping vertices
  * @param om      memberships per overlapping vertex
  */
final case class LFRParams(n: Int, avgDeg: Double, maxDeg: Int, mu: Double,
                           on: Int, om: Int, seed: Long = 7L) {
  require(om >= 1 && on >= 0 && on <= n && mu >= 0 && mu < 1)
}

/** A generated benchmark instance: the graph plus its ground-truth cover. */
final case class LFRInstance(graph: LocalGraph, communities: Vector[Set[Int]]) {
  /** Memberships per vertex. */
  def membershipOf: Array[List[Int]] = {
    val m = Array.fill(graph.n)(List.empty[Int])
    communities.zipWithIndex.foreach { case (c, ci) => c.foreach(v => m(v) ::= ci) }
    m
  }
}

/** LFR-style generator of graphs with planted overlapping communities.
  *
  * Substitution note (see DESIGN.md): the paper uses the original LFR
  * benchmark binary [19]. We reimplement its mechanics — power-law degree
  * sequence (exponent 2 truncated at `maxDeg`, mean `avgDeg`), power-law
  * community sizes (exponent 1), `on` vertices holding `om` memberships,
  * per-vertex mixing `mu`, configuration-model wiring of internal stubs per
  * community and external stubs globally (rejecting intra-community
  * external pairs). Ground truth covers are returned for NMI scoring.
  */
object LFRGenerator {

  /** Community-size range before widening for dense settings. */
  val MinCommunity = 20
  val MaxCommunity = 100

  /** Discrete truncated power-law sampler on [lo, hi] with exponent `gamma`. */
  private final class PowerLaw(lo: Int, hi: Int, gamma: Double) {
    private val ks = (lo to hi).toArray
    private val w  = ks.map(k => math.pow(k.toDouble, -gamma))
    private val cum = w.scanLeft(0.0)(_ + _).tail
    private val total = cum.last
    val mean: Double = ks.zip(w).map { case (k, p) => k * p }.sum / w.sum
    def sample(rng: SplitMix64): Int = {
      val r = rng.nextDouble() * total
      var l = 0; var h = ks.length - 1
      while (l < h) { val m = (l + h) / 2; if (cum(m) < r) l = m + 1 else h = m }
      ks(l)
    }
  }

  /** Find the minimum degree so the truncated power law has mean ≈ avgDeg. */
  private def fitMinDegree(avgDeg: Double, maxDeg: Int): Int = {
    var best = 1; var bestErr = Double.MaxValue
    var lo = 1
    while (lo < maxDeg) {
      val m = new PowerLaw(lo, maxDeg, 2.0).mean
      val err = math.abs(m - avgDeg)
      if (err < bestErr) { bestErr = err; best = lo }
      if (m > avgDeg) lo = maxDeg // means grow with lo; stop once past target
      else lo += 1
    }
    best
  }

  def generate(p: LFRParams): LFRInstance = {
    val rng = Rng.forItem(p.seed, 0L, Rng.SaltGen)

    // 1. Degree sequence.
    val kmin = fitMinDegree(p.avgDeg, p.maxDeg)
    val degDist = new PowerLaw(kmin, p.maxDeg, 2.0)
    val deg = Array.fill(p.n)(degDist.sample(rng))

    // 2. Overlapping vertices: a uniform sample of size `on`.
    val perm = Array.tabulate(p.n)(identity)
    var i = 0
    while (i < p.n - 1) {
      val j = i + rng.nextInt(p.n - i)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i += 1
    }
    val overlapping = perm.take(p.on).toSet
    val membershipsOf = Array.tabulate(p.n)(v => if (overlapping(v)) p.om else 1)

    // 3. Community sizes: power law on [minCommunity, maxCommunity] summing
    //    to the total number of membership slots. As in the original LFR
    //    benchmark, community sizes must accommodate the internal degrees
    //    ((1-mu)·degree members needed), so the range is widened for dense
    //    settings — otherwise internal stubs spill into external edges and
    //    the effective mixing explodes.
    val slots = membershipsOf.sum
    val effMinC = math.max(MinCommunity, math.ceil((1 - p.mu) * p.avgDeg).toInt + 5)
    val effMaxC = math.max(math.max(MaxCommunity, effMinC + 10),
                           math.ceil((1 - p.mu) * p.maxDeg).toInt + 5)
    val sizeDist = new PowerLaw(effMinC, math.min(effMaxC, p.n), 1.0)
    val sizes = mutable.ArrayBuffer.empty[Int]
    var acc = 0
    while (acc < slots) { val s = sizeDist.sample(rng); sizes += s; acc += s }
    // Trim the overshoot off the last community (keep it at least effMinC).
    var overshoot = acc - slots
    var li = sizes.length - 1
    while (overshoot > 0 && li >= 0) {
      val cut = math.min(overshoot, sizes(li) - effMinC)
      sizes(li) -= cut; overshoot -= cut; li -= 1
    }
    if (overshoot > 0) sizes(0) = math.max(1, sizes(0) - overshoot)
    val nc = sizes.length

    // 4. Assign memberships: vertices in random order pick distinct
    //    communities weighted by remaining capacity.
    val capacity = sizes.toArray
    val members = Array.fill(nc)(mutable.ArrayBuffer.empty[Int])
    val assigned = Array.fill(p.n)(mutable.ArrayBuffer.empty[Int])
    for (v <- perm) {
      var need = membershipsOf(v)
      var tries = 0
      while (need > 0 && tries < 200) {
        val totalCap = capacity.sum
        val c =
          if (totalCap > 0) {
            var r = rng.nextInt(totalCap); var ci = 0
            while (r >= capacity(ci)) { r -= capacity(ci); ci += 1 }
            ci
          } else rng.nextInt(nc) // capacities exhausted by trimming: overflow uniformly
        if (!assigned(v).contains(c)) {
          assigned(v) += c; members(c) += v
          if (capacity(c) > 0) capacity(c) -= 1
          need -= 1
        }
        tries += 1
      }
      // Fallback: fill remaining memberships with any distinct communities.
      var c = 0
      while (need > 0 && c < nc) {
        if (!assigned(v).contains(c)) { assigned(v) += c; members(c) += v; need -= 1 }
        c += 1
      }
    }

    // 5. Wire edges. Internal degree (1-mu)*d split evenly over memberships;
    //    per community, configuration model over internal stubs.
    val edgeSet = mutable.HashSet.empty[(Int, Int)]
    def addEdge(u: Int, v: Int): Boolean = {
      if (u == v) false
      else {
        val e = (math.min(u, v), math.max(u, v))
        if (edgeSet(e)) false else { edgeSet += e; true }
      }
    }

    val extDeg = Array.fill(p.n)(0)
    val intStubsPer = Array.fill(nc)(mutable.ArrayBuffer.empty[Int])
    for (v <- 0 until p.n) {
      val di0 = math.round((1.0 - p.mu) * deg(v)).toInt
      val m = assigned(v).length
      // Internal degree within a community is capped by its size - 1.
      var di = di0
      extDeg(v) = deg(v) - di0
      val per = if (m == 0) 0 else di / m
      val rem = if (m == 0) 0 else di % m
      assigned(v).zipWithIndex.foreach { case (c, k) =>
        val want = per + (if (k < rem) 1 else 0)
        val capped = math.min(want, math.max(0, members(c).length - 1))
        extDeg(v) += want - capped
        (0 until capped).foreach(_ => intStubsPer(c) += v)
      }
    }

    def shuffle(buf: mutable.ArrayBuffer[Int]): Unit = {
      var a = buf.length - 1
      while (a > 0) { val b = rng.nextInt(a + 1); val t = buf(a); buf(a) = buf(b); buf(b) = t; a -= 1 }
    }

    for (c <- 0 until nc) {
      val stubs = intStubsPer(c)
      shuffle(stubs)
      var s = 0
      while (s + 1 < stubs.length) {
        val u = stubs(s); val v = stubs(s + 1)
        if (!addEdge(u, v)) {
          // Retry with a swap further down the stub list.
          var tr = 0; var done = false
          while (tr < 20 && !done && s + 2 + tr < stubs.length) {
            val j = s + 2 + rng.nextInt(stubs.length - s - 2)
            val t = stubs(s + 1); stubs(s + 1) = stubs(j); stubs(j) = t
            done = addEdge(stubs(s), stubs(s + 1))
            tr += 1
          }
        }
        s += 2
      }
    }

    // External stubs: global configuration model, rejecting co-member pairs.
    val ext = mutable.ArrayBuffer.empty[Int]
    for (v <- 0 until p.n; _ <- 0 until extDeg(v)) ext += v
    shuffle(ext)
    val coMember = (u: Int, v: Int) => assigned(u).exists(assigned(v).contains)
    var s = 0
    while (s + 1 < ext.length) {
      val ok = !coMember(ext(s), ext(s + 1)) && addEdge(ext(s), ext(s + 1))
      if (!ok) {
        var tr = 0; var done = false
        while (tr < 20 && !done && s + 2 + tr < ext.length) {
          val j = s + 2 + rng.nextInt(ext.length - s - 2)
          val t = ext(s + 1); ext(s + 1) = ext(j); ext(j) = t
          done = !coMember(ext(s), ext(s + 1)) && addEdge(ext(s), ext(s + 1))
          tr += 1
        }
      }
      s += 2
    }

    val graph = LocalGraph.fromEdges(p.n, edgeSet)
    val cover = members.iterator.map(_.toSet).filter(_.size >= 2).toVector
    LFRInstance(graph, cover)
  }
}
