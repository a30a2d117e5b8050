package repro.name

import java.util.Locale
import scala.collection.parallel.CollectionConverters._
import scala.util.hashing.MurmurHash3

/** MinHash + banded LSH over character 3-grams — the datasketch substitute.
  *
  * `NumPerm` permutations approximated by `NumPerm` independent hash
  * functions h_i(x) = (a_i·x + b_i) mod p; signatures are banded into
  * `Bands` bands of `NumPerm / Bands` rows. Two strings collide in LSH if
  * any band matches; estimated Jaccard = fraction of equal signature slots.
  *
  * With 128 perms and 32 bands × 4 rows the collision probability at the
  * paper's θ = 0.5 is ≈ 0.88, and ≈ 0.23 at J = 0.3 — the same regime
  * datasketch's MinHashLSH(threshold=0.5) targets.
  */
object MinHashLsh {

  final val NumPerm = 128
  final val Bands = 32
  private final val RowsPerBand = NumPerm / Bands
  private final val Seed = 0x2f17

  private final val P = 2147483647L // 2^31 - 1, Mersenne prime
  private val as: Array[Long] = {
    val r = new scala.util.Random(Seed)
    Array.fill(NumPerm)(1L + r.nextInt((P - 1).toInt))
  }
  private val bs: Array[Long] = {
    val r = new scala.util.Random(Seed + 1)
    Array.fill(NumPerm)(r.nextInt(P.toInt).toLong)
  }

  private val Space = java.util.regex.Pattern.compile("\\s+")

  /** Calls `f` on the hash of each character 3-gram (with repeats) of `s`
    * lowercased in the root locale, space-normalized and trimmed; a shorter
    * string is one shingle.
    */
  private def foreachShingle(s: String)(f: Int => Unit): Unit = {
    val t = Space.matcher(s.toLowerCase(Locale.ROOT)).replaceAll(" ").trim
    if (t.length < 3) f(MurmurHash3.stringHash(t, Seed))
    else for (i <- 0 to t.length - 3) f(MurmurHash3.stringHash(t.substring(i, i + 3), Seed))
  }

  /** Character 3-gram shingle set of a (lowercased, space-normalized)
    * string; short strings fall back to the whole string.
    */
  def shingles(s: String): Set[Int] = {
    val sh = Set.newBuilder[Int]
    foreachShingle(s)(sh += _)
    sh.result()
  }

  /** `v mod P` for 0 <= v < 2^63, by folding: 2^31 ≡ 1 (mod P). */
  private def modP(v: Long): Long = {
    val f1 = (v & P) + (v >>> 31)
    val f2 = (f1 & P) + (f1 >>> 31)
    if (f2 >= P) f2 - P else f2
  }

  /** MinHash signature (length `NumPerm`). A repeated shingle leaves the
    * minima unchanged, so shingles are not deduplicated first.
    */
  def signature(s: String): Array[Int] = {
    val sig = Array.fill(NumPerm)(Int.MaxValue)
    foreachShingle(s) { g =>
      val x = modP(g.toLong & 0xffffffffL)
      var i = 0
      while (i < NumPerm) {
        val h = modP(as(i) * x + bs(i)).toInt
        if (h < sig(i)) sig(i) = h
        i += 1
      }
    }
    sig
  }

  /** Unbiased Jaccard estimate from two signatures. */
  def estJaccard(a: Array[Int], b: Array[Int]): Double = {
    var eq = 0
    var i = 0
    while (i < NumPerm) { if (a(i) == b(i)) eq += 1; i += 1 }
    eq.toDouble / NumPerm
  }

  private def bandHash(sig: Array[Int], b: Int): Int =
    MurmurHash3.arrayHash(sig.slice(b * RowsPerBand, (b + 1) * RowsPerBand), Seed)

  /** Band keys for LSH bucketing: (bandIndex, hashOfBandSlice). */
  def bandKeys(sig: Array[Int]): Array[Long] =
    Array.tabulate(Bands)(b => (b.toLong << 32) | (bandHash(sig, b).toLong & 0xffffffffL))

  /** The LSH buckets of `sigs`: per band, the keys (band hash << 32 | id)
    * sorted, so each bucket is one contiguous run.
    */
  def bandIndex(sigs: Array[Array[Int]]): Array[Array[Long]] =
    (0 until Bands).par.map { b =>
      val keys = Array.tabulate(sigs.length)(id => bandHash(sigs(id), b).toLong << 32 | id)
      java.util.Arrays.sort(keys)
      keys
    }.toArray

  /** Calls `f` on every id that shares a bucket of `index` with `sig`,
    * once per shared band.
    */
  def foreachCandidate(index: Array[Array[Long]], sig: Array[Int])(f: Int => Unit): Unit =
    for (b <- 0 until Bands) {
      val keys = index(b); val h = bandHash(sig, b)
      val at = java.util.Arrays.binarySearch(keys, h.toLong << 32)
      var i = if (at >= 0) at else -at - 1 // the bucket's first key: ids are >= 0
      while (i < keys.length && (keys(i) >> 32).toInt == h) { f(keys(i).toInt); i += 1 }
    }

  /** True Jaccard of the shingle sets (for tests / small inputs). */
  def trueJaccard(x: String, y: String): Double = {
    val a = shingles(x); val b = shingles(y)
    if (a.isEmpty && b.isEmpty) 1.0
    else a.intersect(b).size.toDouble / a.union(b).size
  }
}
