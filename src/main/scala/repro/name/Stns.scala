package repro.name

import org.apache.spark.sql.SparkSession
import scala.collection.parallel.CollectionConverters._
import repro.sim.SimMatrix

/** STNS — string-based name similarity (paper §2.3).
  *
  * Computing Levenshtein on all |Es|·|Et| pairs is infeasible, so the
  * paper first filters candidates with datasketch's MinHash-LSH, keeping
  * pairs with Jaccard ≥ θ (=0.5), then scores only those with Levenshtein.
  *
  * Pipeline (local: a shuffle does not pay off for ~21K names):
  *  1. MinHash signatures per name on both sides;
  *  2. banded LSH buckets of the targets (one sorted key array per band),
  *     probed by each source → candidates;
  *  3. keep pairs with estimated Jaccard ≥ θ;
  *  4. score survivors with normalized Levenshtein similarity
  *     1 − lev(a,b)/max(|a|,|b|).
  */
object Stns {

  private final val Chunk = 256 // sources per parallel task

  /** Exact Levenshtein distance (two-row DP). */
  def levenshtein(a: String, b: String): Int = {
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var cur = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      cur(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val tmp = prev; prev = cur; cur = tmp
      i += 1
    }
    prev(b.length)
  }

  /** Normalized Levenshtein similarity in [0, 1]. */
  def levenshteinSim(a: String, b: String): Double = {
    val m = math.max(a.length, b.length)
    if (m == 0) 1.0 else 1.0 - levenshtein(a, b).toDouble / m
  }

  /** Build Mst.
    *
    * @param srcNames id-indexed source entity names
    * @param tgtNames id-indexed target entity names
    * @param theta    Jaccard lower bound θ (paper: 0.5)
    */
  def similarity(
      spark: SparkSession,
      srcNames: Array[String],
      tgtNames: Array[String],
      theta: Double): SimMatrix = {
    // signatures are the costly part (`NumPerm` hashes per shingle): run them in parallel
    val srcSig = srcNames.par.map(MinHashLsh.signature).toArray
    val tgtSig = tgtNames.par.map(MinHashLsh.signature).toArray
    val index = MinHashLsh.bandIndex(tgtSig)
    // sources in parallel chunks: each candidate pair once, then the θ filter, then Levenshtein
    val blocks = (0 until srcNames.length by Chunk).par.map { from =>
      val seen = new Array[Int](tgtNames.length) // s + 1 once t is a candidate of source s
      val (src, tgt, score) = (Array.newBuilder[Int], Array.newBuilder[Int], Array.newBuilder[Double])
      for (s <- from until math.min(from + Chunk, srcNames.length))
        MinHashLsh.foreachCandidate(index, srcSig(s)) { t =>
          if (seen(t) != s + 1) {
            seen(t) = s + 1
            if (MinHashLsh.estJaccard(srcSig(s), tgtSig(t)) >= theta) {
              src += s; tgt += t; score += levenshteinSim(srcNames(s), tgtNames(t))
            }
          }
        }
      SimMatrix.Block(src.result(), tgt.result(), score.result())
    }
    SimMatrix.fromBlocks(spark, srcNames.length, tgtNames.length, blocks.seq)
  }
}
