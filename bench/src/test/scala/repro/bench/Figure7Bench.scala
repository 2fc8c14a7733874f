package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Figure7Experiments._

/** Fig. 7 (as numeric tables) as defined by `Figure7Experiments`. Paper
  * values are read off Fig. 7 and recorded in EXPERIMENTS.md; the
  * assertions here encode the *shape* the paper reports.
  */
class Figure7Bench extends AnyFunSuite {

  test("Fig. 7a: rSLPA converges — stable NMI for T >= 200") {
    val rows = Convergence.run()
    Convergence.print(rows)
    for (n <- Convergence.Ns) {
      val at200 = rows.collectFirst { case (`n`, 200, s) => s }.get
      val at400 = rows.collectFirst { case (`n`, 400, s) => s }.get
      assert(at200 > 0.6, s"N=$n T=200 NMI=$at200 too low")
      assert(math.abs(at400 - at200) < 0.15, s"N=$n not converged: T200=$at200 T400=$at400")
    }
  }

  test("Fig. 7b: both algorithms keep high, stable NMI as N grows") {
    val rows = vsN.run()
    vsN.print(rows)
    rows.foreach { case (n, s, r) =>
      assert(s > 0.8, s"SLPA NMI at N=$n is $s")
      assert(r > 0.6, s"rSLPA NMI at N=$n is $r")
    }
  }

  test("Fig. 7c: NMI grows with density k and plateaus") {
    val rows = vsK.run()
    vsK.print(rows)
    val atK10r = rows.head._3; val atK50r = rows(2)._3
    assert(atK50r >= atK10r - 0.05, s"rSLPA should not degrade with density: k10=$atK10r k50=$atK50r")
    rows.drop(1).foreach { case (k, s, r) =>
      assert(s > 0.8 && r > 0.6, s"k=$k SLPA=$s rSLPA=$r")
    }
  }

  test("Fig. 7d: scores stay high as mixing mu grows; rSLPA drops slowly") {
    val rows = vsMu.run()
    vsMu.print(rows)
    rows.foreach { case (mu, s, r) =>
      assert(s > 0.75, s"SLPA at mu=$mu: $s")
      assert(r > 0.45, s"rSLPA at mu=$mu: $r")
    }
  }

  test("Fig. 7e: NMI decreases with om; rSLPA holds up for larger om") {
    val rows = vsOm.run()
    vsOm.print(rows)
    val s2 = rows.head._2; val s5 = rows.last._2
    assert(s5 < s2 + 0.02, s"SLPA should decrease with om: om2=$s2 om5=$s5")
  }

  test("Fig. 7f: NMI decreases as overlapping vertices increase") {
    val rows = vsOn.run()
    vsOn.print(rows)
    val first = rows.head; val last = rows.last
    assert(last._2 < first._2 + 0.02, s"SLPA should decrease with on: ${first._2} -> ${last._2}")
    assert(last._3 < first._3 + 0.1, s"rSLPA should not improve with on: ${first._3} -> ${last._3}")
  }
}
