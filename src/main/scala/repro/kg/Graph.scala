package repro.kg

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

  /** The graph of `n` vertices over the triples h --r--> t, interleaved as
    * in `KG.triplesArray`, each taken in both directions. Self-loops are
    * dropped; a vertex's neighbours are in triple order. An edge weighs
    * `weight(r, √(d_h·d_t))`, with d the vertex degrees without self-loops.
    */
  def fromTriples(n: Int, triples: Array[Int])(weight: (Int, Double) => Float): Graph = {
    val edges = Array.range(0, triples.length, 3).filter(i => triples(i) != triples(i + 2)) // no self-loops
    val deg = new Array[Int](n)
    edges.foreach { i => deg(triples(i)) += 1; deg(triples(i + 2)) += 1 }
    val ptr = deg.scanLeft(0)(_ + _)
    val fill = ptr.clone() // next free slot per vertex
    val nbr = new Array[Int](ptr(n))
    val w = new Array[Double](ptr(n))
    edges.foreach { i =>
      val h = triples(i); val t = triples(i + 2)
      val x = weight(triples(i + 1), math.sqrt(deg(h).toDouble * deg(t)))
      nbr(fill(h)) = t; w(fill(h)) = x; fill(h) += 1
      nbr(fill(t)) = h; w(fill(t)) = x; fill(t) += 1
    }
    new Graph(ptr, nbr, w)
  }

  /** The graph of `n` vertices over the edges (`us(e)`, `vs(e)`, `ws(e)`):
    * each edge is stored at both ends, self-loops are dropped, parallel
    * edges (in either orientation) become one edge with the summed weight,
    * and each vertex's neighbours are sorted by id. The two directed copies
    * of every edge are laid out in input order and put in (vertex,
    * neighbour) order by two stable counting sorts, by neighbour and then by
    * vertex, so the build is linear in n plus the edges. A merged weight is
    * `0.0` plus its edges' weights in input order, which is exact for the
    * integral weights METIS-CPS uses; so the graph does not depend on how
    * the edges were listed. Throws IllegalArgumentException unless the
    * three arrays have one length and every endpoint is in [0, n).
    */
  def fromEdges(n: Int, us: Array[Int], vs: Array[Int], ws: Array[Double]): Graph = {
    require(us.length == vs.length && vs.length == ws.length,
      s"edge arrays have lengths ${us.length}, ${vs.length} and ${ws.length}")
    // deg(x): the directed copies with x as vertex, which are also those with x as neighbour
    val deg = new Array[Int](n + 1)
    var e = 0
    while (e < us.length) {
      val u = us(e); val v = vs(e)
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u, $v) has an endpoint outside [0, $n)")
      if (u != v) { deg(u + 1) += 1; deg(v + 1) += 1 }
      e += 1
    }
    var x = 0
    while (x < n) { deg(x + 1) += deg(x); x += 1 }
    val start = deg // start(x) until start(x + 1): x's copies, in either sort
    // sort 1: the copies by neighbour, in input order within one neighbour
    val byNbrVertex = new Array[Int](start(n))
    val byNbrW = new Array[Double](start(n))
    val fill = java.util.Arrays.copyOf(start, n)
    e = 0
    while (e < us.length) {
      val u = us(e); val v = vs(e)
      if (u != v) {
        byNbrVertex(fill(v)) = u; byNbrW(fill(v)) = ws(e); fill(v) += 1
        byNbrVertex(fill(u)) = v; byNbrW(fill(u)) = ws(e); fill(u) += 1
      }
      e += 1
    }
    // sort 2: stably by vertex, so by (vertex, neighbour), input order within a pair
    val nbr = new Array[Int](start(n))
    val w = new Array[Double](start(n))
    System.arraycopy(start, 0, fill, 0, n)
    var nb = 0
    while (nb < n) {
      var j = start(nb)
      while (j < start(nb + 1)) {
        val u = byNbrVertex(j)
        nbr(fill(u)) = nb; w(fill(u)) = byNbrW(j); fill(u) += 1
        j += 1
      }
      nb += 1
    }
    // merge each run of one (vertex, neighbour) pair in place, summing from 0.0
    val ptr = new Array[Int](n + 1)
    var m = 0
    x = 0
    while (x < n) {
      var j = start(x)
      while (j < start(x + 1)) {
        if (m > ptr(x) && nbr(m - 1) == nbr(j)) w(m - 1) += w(j)
        else { nbr(m) = nbr(j); w(m) = 0.0 + w(j); m += 1 }
        j += 1
      }
      ptr(x + 1) = m
      x += 1
    }
    new Graph(ptr, java.util.Arrays.copyOf(nbr, m), java.util.Arrays.copyOf(w, m))
  }
}
