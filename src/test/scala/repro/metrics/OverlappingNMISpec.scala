package repro.metrics

import org.scalatest.funsuite.AnyFunSuite
import repro.util.SplitMix64

class OverlappingNMISpec extends AnyFunSuite {

  private val n = 100
  private val cover = Seq((0 until 50).toSet, (50 until 100).toSet)

  test("identical covers score 1") {
    assert(math.abs(OverlappingNMI.score(cover, cover, n) - 1.0) < 1e-12)
  }

  test("score is symmetric") {
    val other = Seq((0 until 30).toSet, (30 until 100).toSet)
    val a = OverlappingNMI.score(cover, other, n)
    val b = OverlappingNMI.score(other, cover, n)
    assert(math.abs(a - b) < 1e-12)
  }

  test("community order does not matter") {
    assert(OverlappingNMI.score(cover, cover.reverse, n) > 0.999999)
  }

  test("unrelated covers score low") {
    // Even/odd split shares no information with the contiguous halves.
    val evenOdd = Seq((0 until n by 2).toSet, (1 until n by 2).toSet)
    val s = OverlappingNMI.score(cover, evenOdd, n)
    assert(s < 0.1, s"expected near 0, got $s")
  }

  test("score lies in [0, 1]") {
    val covers = Seq(
      Seq((0 until 10).toSet, (5 until 40).toSet),
      Seq((0 until 100).toSet),
      Seq((20 until 25).toSet, (24 until 70).toSet, (60 until 100).toSet)
    )
    for (a <- covers; b <- covers) {
      val s = OverlappingNMI.score(a, b, n)
      assert(s >= 0.0 && s <= 1.0 + 1e-12, s"score $s out of range")
    }
  }

  test("more distortion scores lower") {
    def perturbed(k: Int): Seq[Set[Int]] =
      Seq(((0 until 50 - k) ++ (50 until 50 + k)).toSet,
          ((50 + k until 100) ++ (50 - k until 50)).toSet)
    val s5 = OverlappingNMI.score(cover, perturbed(5), n)
    val s20 = OverlappingNMI.score(cover, perturbed(20), n)
    assert(s5 > s20, s"s5=$s5 should exceed s20=$s20")
  }

  test("overlapping ground truth is matched exactly by itself") {
    val ov = Seq((0 until 60).toSet, (40 until 100).toSet)
    assert(OverlappingNMI.score(ov, ov, n) > 0.999999)
  }

  test("splitting one community reduces the score") {
    val split = Seq((0 until 25).toSet, (25 until 50).toSet, (50 until 100).toSet)
    val s = OverlappingNMI.score(cover, split, n)
    assert(s < 1.0 && s > 0.3)
  }

  test("empty covers score 0") {
    assert(OverlappingNMI.score(Seq.empty, cover, n) == 0.0)
    assert(OverlappingNMI.score(cover, Seq.empty, n) == 0.0)
  }

  test("finer perturbations interpolate monotonically") {
    def perturbed(k: Int): Seq[Set[Int]] =
      Seq(((0 until 50 - k) ++ (50 until 50 + k)).toSet,
          ((50 + k until 100) ++ (50 - k until 50)).toSet)
    val scores = Seq(0, 4, 8, 16).map(perturbed).map(OverlappingNMI.score(cover, _, n))
    assert(scores == scores.sorted.reverse, s"not monotone: $scores")
  }

  test("score equals the set-building oracle exactly on random covers") {
    val rng = new SplitMix64(11)
    def community(n: Int): Set[Int] = rng.nextInt(6) match {
      case 0 => Set.empty
      case 1 => (0 until n).toSet
      case _ => Set.fill(rng.nextInt(n + 1))(rng.nextInt(n))
    }
    for (_ <- 0 until 200) {
      val n = 1 + rng.nextInt(60)
      val x = Seq.fill(1 + rng.nextInt(6))(community(n))
      val y = Seq.fill(1 + rng.nextInt(6))(community(n))
      assert(OverlappingNMI.score(x, y, n) == OverlappingNMIOracle.score(x, y, n), s"n=$n x=$x y=$y")
    }
  }
}
