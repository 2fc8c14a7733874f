package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.TableI

/** Table I as defined by [[TableI]]: the generated benchmark graph must
  * honor each parameter at the paper's default setting.
  */
class TableIBench extends AnyFunSuite {

  test("Table I: parameters and generated-graph adherence") {
    val result @ TableI.Result(p, inst, avg, maxDeg, multi, mixing) = TableI.run()
    TableI.print(result)

    assert(inst.graph.n == p.n)
    assert(math.abs(avg - p.avgDeg) < p.avgDeg * 0.25)
    assert(maxDeg <= p.maxDeg + 5)
    assert(multi > p.on * 0.6 && multi <= p.on * 1.2)
    assert(mixing < p.mu + 0.1)
  }
}
