package repro.embed

/** Dense float-vector primitives shared by both channels.
  *
  * All similarity in the paper is Manhattan-distance based; we convert a
  * distance d to a similarity 1/(1+d) so channel fusion can add scores.
  */
object VecOps {

  /** L1 (Manhattan) distance. */
  def manhattan(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
    s
  }

  /** Similarity in (0, 1] derived from Manhattan distance. */
  def manhattanSim(a: Array[Float], b: Array[Float]): Double =
    1.0 / (1.0 + manhattan(a, b))

  /** L2-normalize in place with the paper's ε guard: h ← h / (‖h‖₂ + ε). */
  def normalize(v: Array[Float], eps: Double = 1e-8): Array[Float] = {
    var s = 0.0
    var i = 0
    while (i < v.length) { s += v(i).toDouble * v(i); i += 1 }
    val inv = (1.0 / (math.sqrt(s) + eps)).toFloat
    i = 0
    while (i < v.length) { v(i) *= inv; i += 1 }
    v
  }

  /** Cap the L2 norm at `maxNorm` in place: scales down, never up.
    * (Propagation uses this instead of full normalization so ε-scale
    * noise is never inflated to signal magnitude.)
    */
  def capNorm(v: Array[Float], maxNorm: Double = 1.0): Array[Float] = {
    var s = 0.0
    var i = 0
    while (i < v.length) { s += v(i).toDouble * v(i); i += 1 }
    val norm = math.sqrt(s)
    if (norm > maxNorm) {
      val inv = (maxNorm / norm).toFloat
      i = 0
      while (i < v.length) { v(i) *= inv; i += 1 }
    }
    v
  }

  /** a += s·b (in place). */
  def axpy(a: Array[Float], s: Float, b: Array[Float]): Unit = {
    var i = 0
    while (i < a.length) { a(i) += s * b(i); i += 1 }
  }

  /** Element-wise max-pool accumulate: a(i) = max(a(i), b(i)). */
  def maxPoolInPlace(a: Array[Float], b: Array[Float]): Unit = {
    var i = 0
    while (i < a.length) { if (b(i) > a(i)) a(i) = b(i); i += 1 }
  }

  /** Deterministic pseudo-Gaussian vector seeded by a long (Box–Muller over
    * a splitmix64 stream) — stands in for learned/pretrained parameters.
    */
  def hashGaussian(seed: Long, dim: Int): Array[Float] = {
    var x = seed
    def next(): Long = {
      x += 0x9e3779b97f4a7c15L
      var z = x
      z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
      z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
      z ^ (z >>> 31)
    }
    def u01(): Double = (next() >>> 11) * (1.0 / (1L << 53))
    val out = new Array[Float](dim)
    var i = 0
    while (i < dim) {
      val u1 = math.max(u01(), 1e-12)
      val u2 = u01()
      val r = math.sqrt(-2.0 * math.log(u1))
      out(i) = (r * math.cos(2 * math.Pi * u2)).toFloat
      if (i + 1 < dim) out(i + 1) = (r * math.sin(2 * math.Pi * u2)).toFloat
      i += 2
    }
    out
  }

  /** Rows of equal length `dim` laid end to end: row i is `i*dim until (i+1)*dim`. */
  def flatten(rows: Array[Array[Float]]): Array[Float] = {
    val dim = if (rows.isEmpty) 0 else rows(0).length
    val out = new Array[Float](rows.length * dim)
    var i = 0
    while (i < rows.length) {
      require(rows(i).length == dim, s"row $i has length ${rows(i).length}, not $dim")
      System.arraycopy(rows(i), 0, out, i * dim, dim); i += 1
    }
    out
  }

  /** `out(j) = manhattanSim(row, target from + j)` for `j < out.length`,
    * where target t is row t of the flat row-major matrix `targets` (row
    * length `row.length`, which must not be 0). Four targets are summed per
    * pass over `row`, each in its own double accumulator in `manhattan`'s
    * order of additions, so every score has `manhattanSim`'s bits.
    */
  def l1Sims(row: Array[Float], targets: Array[Float], from: Int, out: Array[Double]): Unit = {
    val dim = row.length
    require(dim > 0 && from >= 0 && (from.toLong + out.length) * dim <= targets.length,
      s"targets $from until ${from + out.length} are not rows of length $dim in ${targets.length} floats")
    val n = out.length
    var j = 0
    while (j + 4 <= n) {
      val o0 = (from + j) * dim; val o1 = o0 + dim; val o2 = o1 + dim; val o3 = o2 + dim
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var d = 0
      while (d < dim) {
        val x = row(d)
        s0 += math.abs(x - targets(o0 + d))
        s1 += math.abs(x - targets(o1 + d))
        s2 += math.abs(x - targets(o2 + d))
        s3 += math.abs(x - targets(o3 + d))
        d += 1
      }
      out(j) = 1.0 / (1.0 + s0); out(j + 1) = 1.0 / (1.0 + s1)
      out(j + 2) = 1.0 / (1.0 + s2); out(j + 3) = 1.0 / (1.0 + s3)
      j += 4
    }
    while (j < n) {
      val o = (from + j) * dim
      var s = 0.0
      var d = 0
      while (d < dim) { s += math.abs(row(d) - targets(o + d)); d += 1 }
      out(j) = 1.0 / (1.0 + s)
      j += 1
    }
  }

  /** Exact top-k of `row` against the flat row-major `targets` by
    * `manhattanSim`, in rank order: (target index, score), score desc, then
    * index asc.
    */
  def l1TopK(row: Array[Float], targets: Array[Float], k: Int): (Array[Int], Array[Double]) = {
    val top = new TopK(k)
    require(row.nonEmpty && targets.length % row.length == 0,
      s"${targets.length} target floats are not rows of length ${row.length}")
    val n = targets.length / row.length
    // scored in chunks, so a row allocates 2 KB, not 8 bytes per target
    val chunk = new Array[Double](math.min(n, 256))
    var from = 0
    while (from < n) {
      val sims = if (n - from >= chunk.length) chunk else new Array[Double](n - from)
      l1Sims(row, targets, from, sims)
      var j = 0
      while (j < sims.length) { top.offer(sims(j), from + j); j += 1 }
      from += sims.length
    }
    top.result()
  }
}

/** The k best (score, index) offers, by score desc, then index asc: ties go
  * to the lower index whatever the offer order. A bounded min-heap over
  * primitive arrays whose root is the worst kept offer; k = 0 keeps nothing.
  */
final class TopK(k: Int) {
  require(k >= 0, s"k must be >= 0, got $k")
  private val score = new Array[Double](k)
  private val index = new Array[Int](k)
  private var size = 0

  /** Offer `s` for index `i`. */
  def offer(s: Double, i: Int): Unit =
    if (size < k) {
      score(size) = s; index(size) = i; size += 1
      siftUp(size - 1)
    } else if (k > 0 && (s > score(0) || (s == score(0) && i < index(0)))) {
      score(0) = s; index(0) = i
      siftDown(0, size)
    }

  /** The kept offers in rank order, as (indices, scores). Empties the heap. */
  def result(): (Array[Int], Array[Double]) = {
    val n = size
    // heap sort: each pass moves the worst remaining offer to the back
    var end = n - 1
    while (end > 0) {
      swap(0, end)
      siftDown(0, end)
      end -= 1
    }
    size = 0
    (java.util.Arrays.copyOf(index, n), java.util.Arrays.copyOf(score, n))
  }

  /** (s, i) ranks below slot j. */
  private def worse(s: Double, i: Int, j: Int): Boolean =
    s < score(j) || (s == score(j) && i > index(j))

  private def siftUp(from: Int): Unit = {
    var c = from
    while (c > 0 && worse(score(c), index(c), (c - 1) / 2)) {
      swap(c, (c - 1) / 2); c = (c - 1) / 2
    }
  }

  private def siftDown(from: Int, n: Int): Unit = {
    var p = from
    var done = false
    while (!done) {
      val l = 2 * p + 1
      if (l >= n) done = true
      else {
        val c = if (l + 1 < n && worse(score(l + 1), index(l + 1), l)) l + 1 else l
        if (worse(score(c), index(c), p)) { swap(c, p); p = c } else done = true
      }
    }
  }

  private def swap(a: Int, b: Int): Unit = {
    val s = score(a); score(a) = score(b); score(b) = s
    val i = index(a); index(a) = index(b); index(b) = i
  }
}
