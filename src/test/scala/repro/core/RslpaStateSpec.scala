package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen

class RslpaStateSpec extends AnyFunSuite {

  private val T = 12
  private lazy val g = GraphGen.webGraphLocal(7, 300, seed = 5)._2

  /** A fresh state that passes the check, and its receiver lists of at
    * least `minLength` labels, as (vertex, position).
    */
  private def fresh(minLength: Int): (RslpaState, IndexedSeq[(Int, Int)]) = {
    val st = LocalRSLPA.propagate(g, T, seed = 6)
    val errs = st.checkInvariants(g.adj)
    assert(errs.isEmpty, errs.take(5).mkString("; "))
    (st, for (s <- 0 until st.n; p <- 0 to T if st.receivers(s, p).size >= minLength) yield (s, p))
  }

  private def assertCaught(st: RslpaState, what: String): Unit = {
    val errs = st.checkInvariants(g.adj)
    assert(errs.exists(_.contains(what)), s"no '$what' among ${errs.take(5)}")
  }

  test("checkInvariants reports labels that no receiver list reaches") {
    val (st, lists) = fresh(1)
    val (s, p) = lists.head
    st.head(s)(p) = -1
    assertCaught(st, "is in no receiver list")
  }

  test("checkInvariants reports a label reached twice") {
    val (st, lists) = fresh(2)
    val (s, p) = lists.head
    val last = st.receivers(s, p).last
    st.next(last._1)(last._2) = st.head(s)(p)
    assertCaught(st, "reached twice")
  }

  test("checkInvariants reports a label in the list of another source") {
    val (st, lists) = fresh(1)
    val (s1, p1) = lists(0); val (s2, p2) = lists(1)
    val h1 = st.head(s1)(p1)
    st.head(s1)(p1) = st.head(s2)(p2)
    st.head(s2)(p2) = h1
    assertCaught(st, "but sits in")
  }

  test("checkInvariants reports a prev that does not mirror next") {
    val (st, lists) = fresh(2)
    val (s, p) = lists.head
    val second = st.receivers(s, p)(1)
    st.prev(second._1)(second._2) = -1
    assertCaught(st, "prev of")
  }
}
