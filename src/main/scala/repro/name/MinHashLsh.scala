package repro.name

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

  private val P = 2147483647L // 2^31 - 1, Mersenne prime
  private val as: Array[Long] = {
    val r = new scala.util.Random(Seed)
    Array.fill(NumPerm)(1L + r.nextInt((P - 1).toInt))
  }
  private val bs: Array[Long] = {
    val r = new scala.util.Random(Seed + 1)
    Array.fill(NumPerm)(r.nextInt(P.toInt).toLong)
  }

  /** Character 3-gram shingle set of a (lowercased, space-normalized)
    * string; short strings fall back to the whole string.
    */
  def shingles(s: String): Set[Int] = {
    val t = s.toLowerCase.replaceAll("\\s+", " ").trim
    if (t.length < 3) Set(MurmurHash3.stringHash(t, Seed))
    else (0 to t.length - 3).map(i => MurmurHash3.stringHash(t.substring(i, i + 3), Seed)).toSet
  }

  /** MinHash signature (length `NumPerm`). */
  def signature(s: String): Array[Int] = {
    val sh = shingles(s)
    val sig = Array.fill(NumPerm)(Int.MaxValue)
    sh.foreach { g =>
      val x = (g.toLong & 0xffffffffL) % P
      var i = 0
      while (i < NumPerm) {
        val h = ((as(i) * x + bs(i)) % P).toInt
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

  /** Band keys for LSH bucketing: (bandIndex, hashOfBandSlice). */
  def bandKeys(sig: Array[Int]): Array[Long] = {
    Array.tabulate(Bands) { b =>
      val h = MurmurHash3.arrayHash(sig.slice(b * RowsPerBand, (b + 1) * RowsPerBand), Seed)
      (b.toLong << 32) | (h.toLong & 0xffffffffL)
    }
  }

  /** True Jaccard of the shingle sets (for tests / small inputs). */
  def trueJaccard(x: String, y: String): Double = {
    val a = shingles(x); val b = shingles(y)
    if (a.isEmpty && b.isEmpty) 1.0
    else a.intersect(b).size.toDouble / a.union(b).size
  }
}
