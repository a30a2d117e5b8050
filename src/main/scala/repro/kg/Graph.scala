package repro.kg

import scala.collection.mutable

/** An undirected weighted graph in CSR form, the one graph type of the
  * program: METIS and METIS-CPS partition it, and the GNN propagates over
  * it. The neighbours of vertex `u` are `nbr(ptr(u) until ptr(u + 1))`,
  * with edge weights `w` alongside. Weights are `Double` so METIS's summed
  * coarse-level weights stay exact; a `Float` weight widens to `Double` and
  * narrows back unchanged.
  */
final class Graph private (val ptr: Array[Int], val nbr: Array[Int], val w: Array[Double]) {
  def n: Int = ptr.length - 1
}

object Graph {

  /** The graph of `n` vertices over the triples (h, r, t), each taken in
    * both directions. Self-loops are dropped; a vertex's neighbours are in
    * triple order. An edge weighs `weight(r, √(d_h·d_t))`, with d the vertex
    * degrees without self-loops.
    */
  def fromTriples(n: Int, triples: Array[(Int, Int, Int)])(weight: (Int, Double) => Float): Graph = {
    val deg = new Array[Int](n)
    triples.foreach { case (h, _, t) => if (h != t) { deg(h) += 1; deg(t) += 1 } }
    val ptr = deg.scanLeft(0)(_ + _)
    val fill = ptr.clone() // next free slot per vertex
    val nbr = new Array[Int](ptr(n))
    val w = new Array[Double](ptr(n))
    triples.foreach { case (h, r, t) =>
      if (h != t) {
        val x = weight(r, math.sqrt(deg(h).toDouble * deg(t)))
        nbr(fill(h)) = t; w(fill(h)) = x; fill(h) += 1
        nbr(fill(t)) = h; w(fill(t)) = x; fill(t) += 1
      }
    }
    new Graph(ptr, nbr, w)
  }

  /** The graph of `n` vertices over the (u, v, w) edges: each edge is stored
    * at both ends, self-loops are dropped, parallel edges (in either
    * orientation) become one edge with the summed weight, and each vertex's
    * neighbours are sorted by id. Weights are summed in input order, which
    * is exact for the integral weights METIS-CPS uses. So the graph does not
    * depend on how the edges were listed.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)]): Graph = {
    def key(u: Int, v: Int): Long = u.toLong << 32 | v
    // both ends of every edge as (vertex, neighbour) keys, sorted and deduplicated
    val both = new mutable.ArrayBuilder.ofLong
    edges.foreach { case (u, v, _) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u, $v) has an endpoint outside [0, $n)")
      if (u != v) { both += key(u, v); both += key(v, u) }
    }
    val sorted = both.result()
    java.util.Arrays.sort(sorted)
    var m = 0
    sorted.foreach(e => if (m == 0 || sorted(m - 1) != e) { sorted(m) = e; m += 1 })
    val keys = java.util.Arrays.copyOf(sorted, m)
    val w = new Array[Double](m)
    edges.foreach { case (u, v, x) =>
      if (u != v) {
        w(java.util.Arrays.binarySearch(keys, key(u, v))) += x
        w(java.util.Arrays.binarySearch(keys, key(v, u))) += x
      }
    }
    val ptr = new Array[Int](n + 1)
    keys.foreach(e => ptr((e >>> 32).toInt + 1) += 1)
    (0 until n).foreach(u => ptr(u + 1) += ptr(u))
    new Graph(ptr, keys.map(_.toInt), w)
  }
}
