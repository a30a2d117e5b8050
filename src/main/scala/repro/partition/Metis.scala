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
  * edges) and returns a part id per vertex.
  */
object Metis {

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

    /** Build a graph from (u, v, w) edges; parallel edges sum weights,
      * self-loops are dropped. `n` vertices with unit vertex weight.
      */
    def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)]): Graph = {
      val maps = Array.fill(n)(mutable.LongMap.empty[Double])
      edges.foreach { case (u, v, w) =>
        if (u != v) {
          maps(u)(v.toLong) = maps(u).getOrElse(v.toLong, 0.0) + w
          maps(v)(u.toLong) = maps(v).getOrElse(u.toLong, 0.0) + w
        }
      }
      val adjN = new Array[Array[Int]](n)
      val adjW = new Array[Array[Double]](n)
      var i = 0
      while (i < n) {
        val m = maps(i)
        adjN(i) = m.keysIterator.map(_.toInt).toArray
        adjW(i) = adjN(i).map(v => m(v.toLong))
        i += 1
      }
      Graph(n, adjN, adjW, Array.fill(n)(1))
    }
  }

  /** Partition `g` into `k` parts; returns part id per vertex (0..k-1).
    *
    * @param imbalance allowed max part weight as a multiple of the average
    */
  def partition(g: Graph, k: Int, imbalance: Double = 1.08, seed: Long = 7L): Array[Int] = {
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
    var part = initialPartition(cur, k, imbalance, rnd)
    refine(cur, part, k, imbalance, rnd, passes = 8)

    // ---- uncoarsen + refine ----------------------------------------------
    for ((finer, cmap) <- levels) {
      val finePart = new Array[Int](finer.n)
      var i = 0
      while (i < finer.n) { finePart(i) = part(cmap(i)); i += 1 }
      part = finePart
      refine(finer, part, k, imbalance, rnd, passes = 4)
    }
    part
  }

  /** Max allowed part weight: the relative `imbalance` factor for large
    * graphs, plus two units of absolute slack so tiny graphs can still be
    * refined with single moves (the relative bound degenerates there).
    */
  private def maxPartWeight(target: Double, imbalance: Double): Double =
    math.max(target * imbalance, target + 2.0)

  /** One level of heavy-edge-matching coarsening.
    * Returns the coarse graph and the fine→coarse vertex map.
    */
  private def coarsen(g: Graph, rnd: Random): (Graph, Array[Int]) = {
    val order = rnd.shuffle((0 until g.n).toVector)
    val matched = Array.fill(g.n)(-1)
    for (u <- order if matched(u) < 0) {
      var best = -1; var bestW = 0.0
      val ns = g.adjN(u); val ws = g.adjW(u)
      var j = 0
      while (j < ns.length) {
        val v = ns(j)
        if (matched(v) < 0 && v != u && ws(j) > bestW) { best = v; bestW = ws(j) }
        j += 1
      }
      if (best >= 0) { matched(u) = best; matched(best) = u }
      else matched(u) = u
    }
    val cmap = new Array[Int](g.n)
    var next = 0
    var i = 0
    while (i < g.n) {
      if (matched(i) >= i) { // representative of its pair (or singleton)
        cmap(i) = next
        if (matched(i) != i) cmap(matched(i)) = next
        next += 1
      }
      i += 1
    }
    // build coarse adjacency
    val maps = Array.fill(next)(mutable.LongMap.empty[Double])
    val cw = new Array[Int](next)
    i = 0
    while (i < g.n) {
      val cu = cmap(i)
      cw(cu) += g.vwgt(i)
      val ns = g.adjN(i); val ws = g.adjW(i)
      var j = 0
      while (j < ns.length) {
        val cv = cmap(ns(j))
        if (cv != cu) maps(cu)(cv.toLong) = maps(cu).getOrElse(cv.toLong, 0.0) + ws(j)
        j += 1
      }
      i += 1
    }
    val adjN = new Array[Array[Int]](next)
    val adjW = new Array[Array[Double]](next)
    i = 0
    while (i < next) {
      adjN(i) = maps(i).keysIterator.map(_.toInt).toArray
      adjW(i) = adjN(i).map(v => maps(i)(v.toLong))
      i += 1
    }
    (Graph(next, adjN, adjW, cw), cmap)
  }

  /** Greedy region growing: BFS-grow k balanced regions from random seeds. */
  private def initialPartition(g: Graph, k: Int, imbalance: Double, rnd: Random): Array[Int] = {
    val part = Array.fill(g.n)(-1)
    val total = g.totalVWgt.toDouble
    val target = total / k
    val pw = new Array[Double](k)
    val order = rnd.shuffle((0 until g.n).toVector)
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
    val maxW = maxPartWeight(target, imbalance)
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
  private def refine(
      g: Graph, part: Array[Int], k: Int, imbalance: Double,
      rnd: Random, passes: Int): Unit = {
    val total = g.totalVWgt.toDouble
    val maxW = maxPartWeight(total / k, imbalance)
    val pw = new Array[Double](k)
    var i = 0
    while (i < g.n) { pw(part(i)) += g.vwgt(i); i += 1 }
    val partCnt = new Array[Int](k)
    i = 0
    while (i < g.n) { partCnt(part(i)) += 1; i += 1 }

    var pass = 0
    var moved = true
    while (pass < passes && moved) {
      moved = false
      val order = rnd.shuffle((0 until g.n).toVector)
      for (u <- order) {
        val pu = part(u)
        if (partCnt(pu) > 1) {
          val ns = g.adjN(u); val ws = g.adjW(u)
          if (ns.nonEmpty) {
            // connectivity of u to each adjacent part
            val conn = mutable.LongMap.empty[Double]
            var j = 0
            while (j < ns.length) {
              val p = part(ns(j))
              conn(p.toLong) = conn.getOrElse(p.toLong, 0.0) + ws(j)
              j += 1
            }
            val internal = conn.getOrElse(pu.toLong, 0.0)
            var bestP = -1; var bestGain = 0.0
            conn.foreachEntry { (pl, w) =>
              val p = pl.toInt
              if (p != pu) {
                val gain = w - internal
                val fits = pw(p) + g.vwgt(u) <= maxW
                if (fits && (gain > bestGain || (gain == bestGain && bestP >= 0 && pw(p) < pw(bestP))))
                  { bestP = p; bestGain = gain }
              }
            }
            if (bestP >= 0 && bestGain > 0) {
              pw(pu) -= g.vwgt(u); pw(bestP) += g.vwgt(u)
              partCnt(pu) -= 1; partCnt(bestP) += 1
              part(u) = bestP
              moved = true
            }
          }
        }
      }
      pass += 1
    }
  }
}
