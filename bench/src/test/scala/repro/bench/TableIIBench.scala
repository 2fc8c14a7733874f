package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.TableII

/** Table II as defined by [[TableII]], over the Fig. 8 graph's directed
  * edges. The reproduced *shape*: heavy-tailed in/out-degrees (max in/out
  * degree orders of magnitude above the average) at a comparable average
  * degree.
  */
class TableIIBench extends AnyFunSuite {

  test("Table II: web-graph substitute statistics vs the paper's dataset") {
    val s = TableII.run()
    TableII.print(s)

    // Shape assertions: power-law degree profile like the paper's crawl.
    assert(s.nodes > 10000, "substitute should be non-trivial")
    assert(s.avgDegree > 5, s"average degree ${s.avgDegree} too low")
    assert(s.maxInDegree > 20 * s.avgDegree, "in-degree tail missing")
    assert(s.maxOutDegree > 20 * s.avgDegree, "out-degree tail missing")
    // eu-2015-tpd has max out-degree > max in-degree; RMAT with a=0.57
    // symmetric quadrants gives comparable tails — require both heavy.
  }
}
