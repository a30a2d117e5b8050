package repro

import repro.embed.VecOps

/** The kernels that `VecOps.l1TopK` and the single-pass
  * `StructChannel.mutualNN` replaced, kept verbatim as references for the
  * equivalence properties.
  */
object ReferenceKernels {

  /** The former SENS row loop: a boxed `java.util.PriorityQueue` over
    * (sim, tgt), fed segment by segment. Needs k >= 1.
    */
  def sensRow(sv: Array[Float], tv: Array[Array[Float]], k: Int, segments: Int = 4): Array[(Int, Double)] = {
    val s = math.max(1, segments)
    val segs = Array.tabulate(s) { i =>
      ((tv.length.toLong * i / s).toInt, (tv.length.toLong * (i + 1) / s).toInt)
    }.filter { case (lo, hi) => hi > lo }
    val heap = new java.util.PriorityQueue[(Double, Int)](
      math.max(1, k),
      (a: (Double, Int), b: (Double, Int)) =>
        if (a._1 != b._1) java.lang.Double.compare(a._1, b._1)
        else Integer.compare(b._2, a._2)) // higher id = worse on ties
    for ((lo, hi) <- segs) {
      var t = lo
      while (t < hi) {
        val sim = VecOps.manhattanSim(sv, tv(t))
        if (heap.size < k) heap.add((sim, t))
        else {
          val worst = heap.peek()
          if (sim > worst._1 || (sim == worst._1 && t < worst._2)) {
            heap.poll(); heap.add((sim, t))
          }
        }
        t += 1
      }
    }
    Array.fill(heap.size)(heap.poll()).reverse.map { case (sim, t) => (t, sim) }
  }

  /** The former two-pass mutual nearest neighbours: every pair is scored
    * once for the row argmax and again for the column argmax.
    */
  def mutualNN(
      hs: Array[Array[Float]], ht: Array[Array[Float]],
      skipS: Set[Int], skipT: Set[Int]): Array[(Int, Int)] = {
    if (hs.isEmpty || ht.isEmpty) return Array.empty
    val bestT = new Array[Int](hs.length)
    var i = 0
    while (i < hs.length) {
      var best = -1; var bestSim = -1.0
      var j = 0
      while (j < ht.length) {
        if (!skipT.contains(j)) {
          val s = VecOps.manhattanSim(hs(i), ht(j))
          if (s > bestSim) { bestSim = s; best = j }
        }
        j += 1
      }
      bestT(i) = best
      i += 1
    }
    val bestS = new Array[Int](ht.length)
    var j = 0
    while (j < ht.length) {
      var best = -1; var bestSim = -1.0
      var i2 = 0
      while (i2 < hs.length) {
        if (!skipS.contains(i2)) {
          val s = VecOps.manhattanSim(hs(i2), ht(j))
          if (s > bestSim) { bestSim = s; best = i2 }
        }
        i2 += 1
      }
      bestS(j) = best
      j += 1
    }
    (0 until hs.length).iterator
      .filter(i => !skipS.contains(i) && bestT(i) >= 0 && bestS(bestT(i)) == i)
      .map(i => (i, bestT(i)))
      .toArray
  }
}
