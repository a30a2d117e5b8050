package repro.partition

import repro.kg.Graph
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
  * The partitioner runs on the driver over a `Graph` built by
  * `Graph.fromEdges` (from `KG.undirectedEdges`; KGs at our lite scales
  * have ≤ ~50 K collapsed edges) and returns a part id per vertex. Every
  * neighbour list is sorted by id and every random visit order comes from
  * the seed, so the parts are a function of the edge set, `k` and the seed:
  * not of the order, orientation or splitting of the input edges. Input
  * vertices weigh 1; a coarse vertex weighs the input vertices it merges.
  */
object Metis {

  /** Max part weight as a multiple of the average part weight. */
  private val Imbalance = 1.08

  /** Total weight of the edges of `g` cut by `part` (each edge counted once). */
  def cutWeight(g: Graph, part: Array[Int]): Double = {
    var cut = 0.0
    var u = 0
    while (u < g.n) {
      var j = g.ptr(u)
      while (j < g.ptr(u + 1)) {
        val v = g.nbr(j)
        if (v > u && part(v) != part(u)) cut += g.w(j)
        j += 1
      }
      u += 1
    }
    cut
  }

  /** Partition `g` into `k` parts; returns part id per vertex (0..k-1). */
  def partition(g: Graph, k: Int, seed: Long = 7L): Array[Int] = {
    require(k >= 1, s"k must be >= 1, got $k")
    if (k == 1) return Array.fill(g.n)(0)
    if (k >= g.n) return Array.tabulate(g.n)(i => i % k)

    val rnd = new Random(seed)

    // ---- coarsening phase ------------------------------------------------
    val coarseTarget = math.max(40 * k, 256)
    // (finer graph, its vertex weights, cmap finer->coarser)
    var levels = List.empty[(Graph, Array[Int], Array[Int])]
    var cur = g
    var curW = Array.fill(g.n)(1)
    var continue = cur.n > coarseTarget
    while (continue) {
      val (coarse, coarseW, cmap) = coarsen(cur, curW, rnd)
      if (coarse.n >= cur.n * 0.95 || coarse.n <= coarseTarget) continue = false
      if (coarse.n < cur.n) {
        levels = (cur, curW, cmap) :: levels
        cur = coarse
        curW = coarseW
      } else continue = false
    }

    // ---- initial partition on the coarsest graph -------------------------
    var part = initialPartition(cur, curW, k, rnd)
    refine(cur, curW, part, k, rnd, passes = 8)

    // ---- uncoarsen + refine ----------------------------------------------
    for ((finer, finerW, cmap) <- levels) {
      val finePart = new Array[Int](finer.n)
      var i = 0
      while (i < finer.n) { finePart(i) = part(cmap(i)); i += 1 }
      part = finePart
      refine(finer, finerW, part, k, rnd, passes = 4)
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
    * so no id range is favoured. Returns the coarse graph, its vertex
    * weights and the fine→coarse vertex map.
    */
  private def coarsen(g: Graph, vwgt: Array[Int], rnd: Random): (Graph, Array[Int], Array[Int]) = {
    val order = permutation(g.n, rnd)
    val rank = new Array[Int](g.n)
    order.indices.foreach(i => rank(order(i)) = i)
    val matched = Array.fill(g.n)(-1)
    for (u <- order if matched(u) < 0) {
      var best = -1; var bestW = 0.0
      var j = g.ptr(u)
      while (j < g.ptr(u + 1)) {
        val v = g.nbr(j)
        if (matched(v) < 0 && (g.w(j) > bestW || (g.w(j) == bestW && best >= 0 && rank(v) < rank(best)))) {
          best = v; bestW = g.w(j)
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
    vwgt.indices.foreach(i => cw(cmap(i)) += vwgt(i))
    // each fine edge once, by u ascending and then neighbour slot, with its coarse ends
    val slots = g.ptr(g.n)
    val us = new Array[Int](slots); val vs = new Array[Int](slots); val ws = new Array[Double](slots)
    var e = 0
    var u = 0
    while (u < g.n) {
      var j = g.ptr(u)
      while (j < g.ptr(u + 1)) {
        if (g.nbr(j) > u) { us(e) = cmap(u); vs(e) = cmap(g.nbr(j)); ws(e) = g.w(j); e += 1 }
        j += 1
      }
      u += 1
    }
    val coarse = Graph.fromEdges(next,
      java.util.Arrays.copyOf(us, e), java.util.Arrays.copyOf(vs, e), java.util.Arrays.copyOf(ws, e))
    (coarse, cw, cmap)
  }

  /** Greedy region growing: BFS-grow k balanced regions from random seeds. */
  private def initialPartition(g: Graph, vwgt: Array[Int], k: Int, rnd: Random): Array[Int] = {
    val part = Array.fill(g.n)(-1)
    val target = vwgt.sum.toDouble / k
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
            part(u) = p; pw(p) += vwgt(u)
            var j = g.ptr(u)
            while (j < g.ptr(u + 1)) {
              if (part(g.nbr(j)) < 0 && g.w(j) > 0) queue.enqueue(g.nbr(j))
              j += 1
            }
          }
        }
      }
    }
    // everything left goes to the last part, then rebalance overweight parts
    var i = 0
    while (i < g.n) { if (part(i) < 0) { part(i) = k - 1; pw(k - 1) += vwgt(i) }; i += 1 }
    // simple rebalance: move vertices out of overweight parts into the lightest
    val maxW = maxPartWeight(target)
    i = 0
    while (i < g.n) {
      val p = part(i)
      if (pw(p) > maxW) {
        var lightest = 0
        var q = 1
        while (q < k) { if (pw(q) < pw(lightest)) lightest = q; q += 1 }
        if (lightest != p && pw(lightest) + vwgt(i) <= maxW) {
          pw(p) -= vwgt(i); pw(lightest) += vwgt(i); part(i) = lightest
        }
      }
      i += 1
    }
    part
  }

  /** Boundary Kernighan–Lin refinement: greedy positive-gain moves under
    * the balance constraint. Mutates `part` in place.
    */
  private def refine(g: Graph, vwgt: Array[Int], part: Array[Int], k: Int, rnd: Random, passes: Int): Unit = {
    val maxW = maxPartWeight(vwgt.sum.toDouble / k)
    val pw = new Array[Double](k)
    val partCnt = new Array[Int](k)
    var i = 0
    while (i < g.n) { pw(part(i)) += vwgt(i); partCnt(part(i)) += 1; i += 1 }
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
        if (partCnt(pu) > 1 && g.ptr(u + 1) > g.ptr(u)) {
          var nt = 0
          var j = g.ptr(u)
          while (j < g.ptr(u + 1)) {
            val p = part(g.nbr(j))
            if (!isTouched(p)) { isTouched(p) = true; touched(nt) = p; nt += 1 }
            conn(p) += g.w(j)
            j += 1
          }
          val internal = conn(pu)
          var bestP = -1; var bestGain = 0.0
          var t = 0
          while (t < nt) {
            val p = touched(t)
            if (p != pu) {
              val gain = conn(p) - internal
              val fits = pw(p) + vwgt(u) <= maxW
              if (fits && (gain > bestGain || (gain == bestGain && bestP >= 0 && pw(p) < pw(bestP))))
                { bestP = p; bestGain = gain }
            }
            conn(p) = 0.0; isTouched(p) = false
            t += 1
          }
          if (bestP >= 0 && bestGain > 0) {
            pw(pu) -= vwgt(u); pw(bestP) += vwgt(u)
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
