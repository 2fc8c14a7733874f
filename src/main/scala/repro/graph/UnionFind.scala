package repro.graph

/** Union–find over `[0, n)` with union by size and path halving. */
final class UnionFind(n: Int) {
  private val parent = Array.tabulate(n)(identity)
  private val sizes = Array.fill(n)(1)

  /** Representative of the component of `x`. */
  def find(x0: Int): Int = {
    var x = x0
    while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
    x
  }

  /** Number of vertices in the component of `x`. */
  def size(x: Int): Int = sizes(find(x))

  /** Merge the components of `a` and `b`; false if they were already one. */
  def union(a: Int, b: Int): Boolean = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) false
    else {
      val (big, small) = if (sizes(ra) >= sizes(rb)) (ra, rb) else (rb, ra)
      parent(small) = big
      sizes(big) += sizes(small)
      true
    }
  }
}
