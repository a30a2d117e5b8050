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

  /** L2-normalize in place with the paper's ε guard: h ← h / (‖h‖₂ + ε), ε = 1e-8. */
  def normalize(v: Array[Float]): Array[Float] = {
    var s = 0.0
    var i = 0
    while (i < v.length) { s += v(i).toDouble * v(i); i += 1 }
    val inv = (1.0 / (math.sqrt(s) + 1e-8)).toFloat
    i = 0
    while (i < v.length) { v(i) *= inv; i += 1 }
    v
  }

  /** Cap the L2 norm at 1 in place: scales down, never up.
    * (Propagation uses this instead of full normalization so ε-scale
    * noise is never inflated to signal magnitude.)
    */
  def capNorm(v: Array[Float]): Array[Float] = {
    var s = 0.0
    var i = 0
    while (i < v.length) { s += v(i).toDouble * v(i); i += 1 }
    val norm = math.sqrt(s)
    if (norm > 1.0) {
      val inv = (1.0 / norm).toFloat
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

  /** Exact top-k of `row` against `targets` by `manhattanSim`, in rank
    * order: (target index, score), score desc, then index asc.
    */
  def l1TopK(row: Array[Float], targets: L1Targets, k: Int): (Array[Int], Array[Double]) = {
    val top = new TopK(k)
    l1Scan(row, targets, top)
    top.result()
  }

  /** Offers `top` the score of every target that could enter it, in
    * ascending target order, and returns how many were rescored: pass 1
    * fills the filter value `Q` of every target, and pass 2 rescores only
    * the targets within `kthCut`.
    */
  private[embed] def l1Scan(row: Array[Float], targets: L1Targets, top: TopK): Int = {
    if (top.k == 0) return 0
    val q = new Array[Int](targets.n)
    targets.filter(row, q)
    val cut = targets.kthCut(q, top.k)
    val cand = new Array[Int](q.length)
    var m = 0
    var t = 0
    while (t < q.length) { if (q(t) <= cut) { cand(m) = t; m += 1 }; t += 1 } // an exact-path target has q = -1
    val sims = new Array[Double](m)
    targets.sims(row, cand, sims)
    var j = 0
    while (j < m) { top.offer(sims(j), cand(j)); j += 1 }
    m
  }
}

/** Equal-length targets for the exact L1 kernel: the rows laid end to end as
  * `Float`s, next to an `Int` copy `q = rint(x·S)`, built once per target
  * matrix. The `Int` copy is stored by dimension in blocks of `Block`
  * targets (the last block is shorter): `cols(b·dim + d)` holds value `d`
  * of the targets in block `b`, so the filter's inner loop runs over one
  * array per dimension and C2 vectorizes it. `S` is the largest power of
  * two with `|rint(M·S)| <= qMax`, where `M` is the largest finite `|x|`
  * among the targets and the rows to be scored, and
  * `qMax = (2³¹ − 1) / (2·dim)`, so a sum of `dim` terms `|q_row − q_t|`
  * cannot overflow.
  *
  * Why the filter is exact: per value `|q − S·x| <= 1/2`, so the filter
  * value `Q = Σ |q_row − q_t|` is within `dim` of `S·D`, where `D` is the
  * real L1 distance. The exact distance `d` (`manhattan`: a `Float`
  * difference per value, summed in `Double`) is within a relative 2⁻²¹ of
  * `D`. `cut` and `floorScore` carry those bounds, plus the rounding of
  * `1/(1+d)`, with margins. A row or target holding a non-finite value, or
  * a value past `qMax`, takes the exact path: it is always rescored.
  */
final class L1Targets private (
    val n: Int,
    val dim: Int,
    private val flat: Array[Float],
    private val scale: Double,
    private val cols: Array[Array[Int]],
    private val exactIds: Array[Int]) extends Serializable {

  /** The `Int` copy of `v` at this scale; None on the exact path. */
  private[embed] def quantized(v: Array[Float]): Option[Array[Int]] = {
    require(v.length == dim, s"vector length ${v.length} is not the target length $dim")
    val q = new Array[Int](dim)
    if (L1Targets.quantize(v, 0, dim, scale, q)) Some(q) else None
  }

  /** Pass 1: `out(t)` = the filter value `Q` of `row` and target `t`, or −1
    * for a target (or every target, for a row) on the exact path. Each
    * block sums its columns into `acc`, one dimension at a time.
    */
  def filter(row: Array[Float], out: Array[Int]): Unit = {
    require(row.length == dim, s"row length ${row.length} is not the target length $dim")
    val qr = new Array[Int](dim)
    if (dim == 0 || !L1Targets.quantize(row, 0, dim, scale, qr)) { java.util.Arrays.fill(out, 0, n, -1); return }
    val acc = new Array[Int](math.min(n, L1Targets.Block))
    val blocks = cols.length / dim
    var b = 0
    while (b < blocks) {
      java.util.Arrays.fill(acc, 0)
      var d = 0
      while (d < dim) {
        val c = cols(b * dim + d)
        val x = qr(d)
        var j = 0
        while (j < c.length) { acc(j) += java.lang.Math.abs(x - c(j)); j += 1 }
        d += 1
      }
      System.arraycopy(acc, 0, out, b * L1Targets.Block, cols(b * dim).length)
      b += 1
    }
    var e = 0
    while (e < exactIds.length) { out(exactIds(e)) = -1; e += 1 }
  }

  /** `out(j) = manhattanSim(row, target cand(j))` for `j < out.length`.
    * Four targets are summed per pass over `row`, each in its own `Double`
    * accumulator in `manhattan`'s order of additions, so every score has
    * `manhattanSim`'s bits.
    */
  def sims(row: Array[Float], cand: Array[Int], out: Array[Double]): Unit = {
    val m = out.length
    var j = 0
    while (j + 4 <= m) {
      val o0 = cand(j) * dim; val o1 = cand(j + 1) * dim; val o2 = cand(j + 2) * dim; val o3 = cand(j + 3) * dim
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var d = 0
      while (d < dim) {
        val x = row(d)
        s0 += math.abs(x - flat(o0 + d))
        s1 += math.abs(x - flat(o1 + d))
        s2 += math.abs(x - flat(o2 + d))
        s3 += math.abs(x - flat(o3 + d))
        d += 1
      }
      out(j) = 1.0 / (1.0 + s0); out(j + 1) = 1.0 / (1.0 + s1)
      out(j + 2) = 1.0 / (1.0 + s2); out(j + 3) = 1.0 / (1.0 + s3)
      j += 4
    }
    while (j < m) {
      val o = cand(j) * dim
      var s = 0.0
      var d = 0
      while (d < dim) { s += math.abs(row(d) - flat(o + d)); d += 1 }
      out(j) = 1.0 / (1.0 + s)
      j += 1
    }
  }

  /** A `Q` above which a target scores strictly below `score`; `Int.MaxValue`
    * when `score` is not positive (NaN: nothing is known). With
    * `u = (1/score)·(1 + 2⁻⁴⁸) − 1`, a target past `dim + ⌈S·u·(1 + 2⁻²⁰)⌉ + 1`
    * has `d > u`, so `1 + d` exceeds `1/score` by more than the rounding of
    * `1/(1+d)`.
    */
  def cut(score: Double): Int = {
    if (!(score > 0)) return Int.MaxValue
    val u = math.max(0.0, (1.0 / score) * (1 + L1Targets.Ulp48) - 1.0)
    val v = scale * u * (1 + L1Targets.Ulp20)
    if (v < Int.MaxValue - dim - 2) dim + math.ceil(v).toInt + 1 else Int.MaxValue
  }

  /** A `Q` past which a target scores strictly below k others, from the k
    * smallest filter values of pass 1 in `q`; `Int.MaxValue` when there are
    * fewer than k, or when a target takes the exact path. Without one, no
    * score is NaN, so scores are totally ordered and a target that k others
    * beat is in no top k, whatever else is offered. The k smallest are kept
    * in a max-heap whose root is the k-th smallest so far.
    */
  def kthCut(q: Array[Int], k: Int): Int = {
    require(k >= 0, s"k must be >= 0, got $k")
    if (k == 0 || q.length < k) return Int.MaxValue
    val heap = java.util.Arrays.copyOf(q, k)
    var t = k - 1
    while (t >= 0) { if (heap(t) < 0) return Int.MaxValue; L1Targets.siftDown(heap, t); t -= 1 }
    var kth = heap(0)
    t = k
    while (t < q.length) {
      val x = q(t)
      if (x < kth) {
        if (x < 0) return Int.MaxValue
        heap(0) = x
        L1Targets.siftDown(heap, 0)
        kth = heap(0)
      }
      t += 1
    }
    cut(floorScore(kth))
  }

  /** A lower bound on the score of every non-exact target with `Q <= q`:
    * its `d` is at most `(q + dim)/S · (1 + 2⁻²⁰)`.
    */
  def floorScore(q: Int): Double =
    (1.0 / (1.0 + (q.toDouble + dim) / scale * (1 + L1Targets.Ulp20))) * (1 - L1Targets.Ulp48)
}

object L1Targets {

  /** 2⁻²⁰ and 2⁻⁴⁸: the relative margins of `cut` and `floorScore`. */
  private val Ulp20 = math.scalb(1.0, -20)
  private val Ulp48 = math.scalb(1.0, -48)

  /** The largest `|q|` a value may take: `dim` terms of `|q_row − q_t|` sum below 2³¹. */
  private def qMax(dim: Int): Int = if (dim == 0) 0 else Int.MaxValue / (2 * dim)

  /** Targets per block of the `Int` copy: the filter's 4 KiB `acc` stays in the L1 cache. */
  private[embed] val Block = 1024

  /** Moves `heap(from)` down until `heap` is a max-heap below `from`. */
  private def siftDown(heap: Array[Int], from: Int): Unit = {
    val x = heap(from)
    var p = from
    var c = 2 * p + 1
    while (c < heap.length) {
      if (c + 1 < heap.length && heap(c + 1) > heap(c)) c += 1
      if (heap(c) <= x) c = heap.length
      else { heap(p) = heap(c); p = c; c = 2 * p + 1 }
    }
    heap(p) = x
  }

  /** `q = rint(x·S)` of `v(from until from + dim)` into `out`; false when
    * a value is not finite or past `qMax` (`x·S` is exact in `Double`).
    */
  private def quantize(v: Array[Float], from: Int, dim: Int, scale: Double, out: Array[Int]): Boolean = {
    val max = qMax(dim)
    var d = 0
    while (d < dim) {
      val x = math.rint(v(from + d) * scale)
      if (!(math.abs(x) <= max)) return false
      out(d) = x.toInt
      d += 1
    }
    true
  }

  /** `targets` quantized at a scale that also fits the values of `rows`
    * (the rows to be scored; others may take the exact path). Throws
    * IllegalArgumentException when the vectors differ in length. Column
    * values of a target on the exact path stay 0.
    */
  def apply(targets: Array[Array[Float]], rows: Array[Array[Float]]): L1Targets = {
    val dim = targets.headOption.orElse(rows.headOption).fold(0)(_.length)
    require(rows.forall(_.length == dim), s"rows are not all of the target length $dim")
    val flat = VecOps.flatten(targets)
    var m = 0f
    for (vs <- Array(targets, rows); v <- vs) {
      var d = 0
      while (d < v.length) { val x = math.abs(v(d)); if (x > m && x <= Float.MaxValue) m = x; d += 1 }
    }
    val scale = if (m == 0) 1.0 else math.scalb(1.0, math.getExponent(qMax(dim) / m))
    val n = targets.length
    val cols = Array.tabulate((n + Block - 1) / Block * dim)(c => new Array[Int](math.min(Block, n - c / dim * Block)))
    val exact = Array.newBuilder[Int]
    val q = new Array[Int](dim)
    for (t <- 0 until n) {
      if (!quantize(flat, t * dim, dim, scale, q)) exact += t
      else for (d <- 0 until dim) cols(t / Block * dim + d)(t % Block) = q(d)
    }
    new L1Targets(n, dim, flat, scale, cols, exact.result())
  }
}

/** The k best (score, index) offers, by score desc, then index asc: ties go
  * to the lower index whatever the offer order. A bounded min-heap over
  * primitive arrays whose root is the worst kept offer; k = 0 keeps nothing.
  */
final class TopK(val k: Int) {
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
