package repro.partition

import scala.collection.mutable
import scala.util.Random

/** Multilevel k-way graph partitioner — the METIS substitute.
  *
  * Same scheme as METIS (Karypis & Kumar 1998): (1) coarsen by heavy-edge
  * matching, (2) greedy region-growing initial partition on the coarsest
  * graph, (3) project back while applying boundary Kernighan–Lin style
  * refinement at every level. The objective is the METIS objective:
  * minimize the sum of weights of cut edges subject to a balance
  * constraint on vertex weight.
  *
  * Edge weights are honoured, which is what METIS-CPS relies on:
  * zero-weight edges never contribute to the cut (so cutting them is
  * free) and w′≫1 edges are prohibitively expensive to cut.
  *
  * The partitioner runs on the driver over a local edge list
  * (`KG.undirectedEdges`; KGs at our lite scales have ≤ ~50 K collapsed
  * edges) and returns a part id per vertex. Every adjacency list is sorted
  * by neighbour id and every random visit order comes from the seed, so the
  * parts are a function of the edge set, `k` and the seed: not of the order,
  * orientation or splitting of the input edges.
  */
object Metis {

  /** Max part weight as a multiple of the average part weight. */
  private val Imbalance = 1.08

  /** Undirected weighted graph in adjacency form.
    *
    * @param n    number of vertices (ids 0..n-1)
    * @param adjN adjacency: neighbour ids per vertex
    * @param adjW adjacency: edge weight parallel to `adjN`
    * @param vwgt vertex weights (collapsed multiplicity during coarsening)
    */
  final case class Graph(
      n: Int,
      adjN: Array[Array[Int]],
      adjW: Array[Array[Double]],
      vwgt: Array[Int]) {

    def totalVWgt: Long = { var s = 0L; var i = 0; while (i < n) { s += vwgt(i); i += 1 }; s }

    /** Total weight of edges cut by `part` (each edge counted once). */
    def cutWeight(part: Array[Int]): Double = {
      var cut = 0.0
      var u = 0
      while (u < n) {
        val ns = adjN(u); val ws = adjW(u)
        var j = 0
        while (j < ns.length) {
          val v = ns(j)
          if (v > u && part(v) != part(u)) cut += ws(j)
          j += 1
        }
        u += 1
      }
      cut
    }
  }

  object Graph {

    /** Build a graph from (u, v, w) edges with unit vertex weights. */
    def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)]): Graph =
      fromEdges(n, edges, Array.fill(n)(1))

    /** Build a graph from (u, v, w) edges: each edge is stored at both
      * ends, self-loops are dropped, parallel edges (in either orientation)
      * become one edge with the summed weight, and each adjacency list is
      * sorted by neighbour id. Weights are summed in input order, which is
      * exact for the integral weights METIS-CPS uses. So the graph does not
      * depend on how the edges were listed; and since sorted lists would
      * hand every heavy-edge tie to the lowest id, `coarsen` breaks ties by
      * its random visit order instead. Used for input graphs and for every
      * coarse level.
      */
    def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)], vwgt: Array[Int]): Graph = {
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
      val sums = new Array[Double](m)
      edges.foreach { case (u, v, w) =>
        if (u != v) {
          sums(java.util.Arrays.binarySearch(keys, key(u, v))) += w
          sums(java.util.Arrays.binarySearch(keys, key(v, u))) += w
        }
      }
      // keys(start(u) until start(u + 1)) are the neighbours of u
      val start = new Array[Int](n + 1)
      keys.foreach(e => start((e >>> 32).toInt + 1) += 1)
      (0 until n).foreach(u => start(u + 1) += start(u))
      Graph(n,
        Array.tabulate(n)(u => keys.slice(start(u), start(u + 1)).map(_.toInt)),
        Array.tabulate(n)(u => sums.slice(start(u), start(u + 1))),
        vwgt)
    }
  }

  /** Partition `g` into `k` parts; returns part id per vertex (0..k-1). */
  def partition(g: Graph, k: Int, seed: Long = 7L): Array[Int] = {
    require(k >= 1, s"k must be >= 1, got $k")
    if (k == 1) return Array.fill(g.n)(0)
    if (k >= g.n) return Array.tabulate(g.n)(i => i % k)

    val rnd = new Random(seed)

    // ---- coarsening phase ------------------------------------------------
    val coarseTarget = math.max(40 * k, 256)
    var levels = List.empty[(Graph, Array[Int])] // (finer graph, cmap finer->coarser)
    var cur = g
    var continue = cur.n > coarseTarget
    while (continue) {
      val (coarse, cmap) = coarsen(cur, rnd)
      if (coarse.n >= cur.n * 0.95 || coarse.n <= coarseTarget) continue = false
      if (coarse.n < cur.n) {
        levels = (cur, cmap) :: levels
        cur = coarse
      } else continue = false
    }

    // ---- initial partition on the coarsest graph -------------------------
    var part = initialPartition(cur, k, rnd)
    refine(cur, part, k, rnd, passes = 8)

    // ---- uncoarsen + refine ----------------------------------------------
    for ((finer, cmap) <- levels) {
      val finePart = new Array[Int](finer.n)
      var i = 0
      while (i < finer.n) { finePart(i) = part(cmap(i)); i += 1 }
      part = finePart
      refine(finer, part, k, rnd, passes = 4)
    }
    part
  }

  /** Max allowed part weight: the relative `Imbalance` factor for large
    * graphs, plus two units of absolute slack so tiny graphs can still be
    * refined with single moves (the relative bound degenerates there).
    */
  private def maxPartWeight(target: Double): Double =
    math.max(target * Imbalance, target + 2.0)

  /** A uniformly random permutation of 0 until n (Fisher–Yates). */
  private def permutation(n: Int, rnd: Random): Array[Int] = {
    val a = Array.range(0, n)
    var i = n - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  /** One level of heavy-edge-matching coarsening: vertices are visited in
    * a random order and each unmatched one is matched with its unmatched
    * neighbour of heaviest edge; a tie goes to the neighbour visited first,
    * so no id range is favoured. Returns the coarse graph and the
    * fine→coarse vertex map.
    */
  private def coarsen(g: Graph, rnd: Random): (Graph, Array[Int]) = {
    val order = permutation(g.n, rnd)
    val rank = new Array[Int](g.n)
    order.indices.foreach(i => rank(order(i)) = i)
    val matched = Array.fill(g.n)(-1)
    for (u <- order if matched(u) < 0) {
      var best = -1; var bestW = 0.0
      val ns = g.adjN(u); val ws = g.adjW(u)
      var j = 0
      while (j < ns.length) {
        val v = ns(j)
        if (matched(v) < 0 && (ws(j) > bestW || (ws(j) == bestW && best >= 0 && rank(v) < rank(best)))) {
          best = v; bestW = ws(j)
        }
        j += 1
      }
      if (best >= 0) { matched(u) = best; matched(best) = u }
      else matched(u) = u
    }
    val cmap = new Array[Int](g.n)
    var next = 0
    for (i <- 0 until g.n if matched(i) >= i) { // representative of its pair (or singleton)
      cmap(i) = next; cmap(matched(i)) = next; next += 1
    }
    val cw = new Array[Int](next)
    g.vwgt.indices.foreach(i => cw(cmap(i)) += g.vwgt(i))
    val edges = for {
      u <- 0 until g.n
      j <- g.adjN(u).indices if g.adjN(u)(j) > u
    } yield (cmap(u), cmap(g.adjN(u)(j)), g.adjW(u)(j))
    (Graph.fromEdges(next, edges, cw), cmap)
  }

  /** Greedy region growing: BFS-grow k balanced regions from random seeds. */
  private def initialPartition(g: Graph, k: Int, rnd: Random): Array[Int] = {
    val part = Array.fill(g.n)(-1)
    val target = g.totalVWgt.toDouble / k
    val pw = new Array[Double](k)
    val order = permutation(g.n, rnd)
    var oi = 0
    for (p <- 0 until k - 1) {
      // find an unassigned seed
      while (oi < order.length && part(order(oi)) >= 0) oi += 1
      if (oi < order.length) {
        val queue = mutable.Queue[Int](order(oi))
        while (queue.nonEmpty && pw(p) < target) {
          val u = queue.dequeue()
          if (part(u) < 0) {
            part(u) = p; pw(p) += g.vwgt(u)
            val ns = g.adjN(u); val ws = g.adjW(u)
            var j = 0
            while (j < ns.length) {
              if (part(ns(j)) < 0 && ws(j) > 0) queue.enqueue(ns(j))
              j += 1
            }
          }
        }
      }
    }
    // everything left goes to the last part, then rebalance overweight parts
    var i = 0
    while (i < g.n) { if (part(i) < 0) { part(i) = k - 1; pw(k - 1) += g.vwgt(i) }; i += 1 }
    // simple rebalance: move vertices out of overweight parts into the lightest
    val maxW = maxPartWeight(target)
    i = 0
    while (i < g.n) {
      val p = part(i)
      if (pw(p) > maxW) {
        var lightest = 0
        var q = 1
        while (q < k) { if (pw(q) < pw(lightest)) lightest = q; q += 1 }
        if (lightest != p && pw(lightest) + g.vwgt(i) <= maxW) {
          pw(p) -= g.vwgt(i); pw(lightest) += g.vwgt(i); part(i) = lightest
        }
      }
      i += 1
    }
    part
  }

  /** Boundary Kernighan–Lin refinement: greedy positive-gain moves under
    * the balance constraint. Mutates `part` in place.
    */
  private def refine(g: Graph, part: Array[Int], k: Int, rnd: Random, passes: Int): Unit = {
    val maxW = maxPartWeight(g.totalVWgt.toDouble / k)
    val pw = new Array[Double](k)
    val partCnt = new Array[Int](k)
    var i = 0
    while (i < g.n) { pw(part(i)) += g.vwgt(i); partCnt(part(i)) += 1; i += 1 }
    // connectivity of the current vertex to each part, and the parts it touches
    val conn = new Array[Double](k)
    val touched = new Array[Int](k)
    val isTouched = new Array[Boolean](k)

    var pass = 0
    var moved = true
    while (pass < passes && moved) {
      moved = false
      for (u <- permutation(g.n, rnd)) {
        val pu = part(u)
        val ns = g.adjN(u); val ws = g.adjW(u)
        if (partCnt(pu) > 1 && ns.nonEmpty) {
          var nt = 0
          var j = 0
          while (j < ns.length) {
            val p = part(ns(j))
            if (!isTouched(p)) { isTouched(p) = true; touched(nt) = p; nt += 1 }
            conn(p) += ws(j)
            j += 1
          }
          val internal = conn(pu)
          var bestP = -1; var bestGain = 0.0
          var t = 0
          while (t < nt) {
            val p = touched(t)
            if (p != pu) {
              val gain = conn(p) - internal
              val fits = pw(p) + g.vwgt(u) <= maxW
              if (fits && (gain > bestGain || (gain == bestGain && bestP >= 0 && pw(p) < pw(bestP))))
                { bestP = p; bestGain = gain }
            }
            conn(p) = 0.0; isTouched(p) = false
            t += 1
          }
          if (bestP >= 0 && bestGain > 0) {
            pw(pu) -= g.vwgt(u); pw(bestP) += g.vwgt(u)
            partCnt(pu) -= 1; partCnt(bestP) += 1
            part(u) = bestP
            moved = true
          }
        }
      }
      pass += 1
    }
  }
}
