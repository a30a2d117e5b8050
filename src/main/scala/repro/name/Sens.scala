package repro.name

import org.apache.spark.sql.SparkSession
import repro.embed.{L1Targets, VecOps}
import repro.sim.SimMatrix

/** SENS — semantic name similarity (paper §2.3).
  *
  * The paper splits the two semantic embedding matrices into K segments
  * each (memory saving) and finds the top-k most similar pairs between
  * every segment pair with Faiss under Manhattan distance; only those
  * top-k cells populate Mse.
  *
  * This is an *exact* re-implementation of the same output: the target
  * embeddings are broadcast once as `L1Targets` (flat `Float`s and their
  * `Int` copy for the pre-filter, Faiss's SIMD scan in the paper), and each
  * source row runs `VecOps.l1TopK` over all of them (identical result to
  * merging the K per-segment top-k lists). Spark parallelizes over slices
  * of source rows. Scores are 1/(1+L1), so fusion can add them.
  */
object Sens {

  /** Build Mse.
    *
    * @param srcVecs  semantic embeddings of the source entities (id-indexed)
    * @param tgtVecs  semantic embeddings of the target entities (id-indexed)
    * @param k        top-k retained per source entity (paper φ = 50); k = 0
    *                 keeps no cell, k < 0 throws IllegalArgumentException
    * @param segments the paper's K target segments; it changes neither the
    *                 result nor memory use (the whole target matrix is
    *                 broadcast; `MemModel` covers the paper's memory bound)
    */
  def similarity(
      spark: SparkSession,
      srcVecs: Array[Array[Float]],
      tgtVecs: Array[Array[Float]],
      k: Int,
      segments: Int = 4): SimMatrix = {
    require(k >= 0, s"k must be >= 0, got $k")
    val sc = spark.sparkContext
    val targets = sc.broadcast(L1Targets(tgtVecs, srcVecs))
    val src = sc.broadcast(VecOps.flatten(srcVecs))
    val dim = targets.value.dim
    SimMatrix.tabulate(spark, srcVecs.length, tgtVecs.length) { s =>
      VecOps.l1TopK(java.util.Arrays.copyOfRange(src.value, s * dim, (s + 1) * dim), targets.value, k)
    }
  }
}
