package repro.metrics

import org.scalatest.funsuite.AnyFunSuite
import repro.util.SplitMix64

class SizeEntropySpec extends AnyFunSuite {

  test("single community covering everything has entropy 0") {
    assert(SizeEntropyOracle.of(Seq(100), 100) == 0.0)
  }

  test("two equal halves give ln 2") {
    assert(math.abs(SizeEntropyOracle.of(Seq(50, 50), 100) - math.log(2)) < 1e-12)
  }

  test("many equal communities give higher entropy than few") {
    val few = SizeEntropyOracle.of(Seq(50, 50), 100)
    val many = SizeEntropyOracle.of(Seq.fill(10)(10), 100)
    assert(many > few)
  }

  test("zero-size communities are ignored") {
    assert(SizeEntropyOracle.of(Seq(50, 0, 50), 100) == SizeEntropyOracle.of(Seq(50, 50), 100))
  }

  test("empty list has entropy 0") {
    assert(SizeEntropyOracle.of(Nil, 10) == 0.0)
  }

  test("skewed sizes score below balanced sizes") {
    assert(SizeEntropyOracle.of(Seq(90, 10), 100) < SizeEntropyOracle.of(Seq(50, 50), 100))
  }

  test("ofSizeCounts equals Eq. 1 over the communities of at least two vertices") {
    val rng = new SplitMix64(7)
    for (_ <- 0 until 50) {
      val n = 50 + rng.nextInt(500)
      val sizes = Seq.fill(rng.nextInt(12))(1 + rng.nextInt(n / 12))
      val bySize = new Array[Int](n + 1)
      sizes.foreach(s => bySize(s) += 1)
      val exp = SizeEntropyOracle.of(sizes.filter(_ >= 2), n)
      assert(math.abs(SizeEntropy.ofSizeCounts(bySize, n) - exp) < 1e-12, s"sizes=$sizes n=$n")
    }
  }
}
