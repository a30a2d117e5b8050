package repro.name

import org.apache.spark.sql.SparkSession
import repro.embed.VecOps
import repro.sim.SimMatrix

/** SENS — semantic name similarity (paper §2.3).
  *
  * The paper splits the two semantic embedding matrices into K segments
  * each (memory saving) and finds the top-k most similar pairs between
  * every segment pair with Faiss under Manhattan distance; only those
  * top-k cells populate Mse.
  *
  * This is an *exact* re-implementation of the same output: the target
  * embeddings are broadcast as one flat row-major `Float` array, and each
  * source row runs `VecOps.l1TopK` over all of it (identical result to
  * merging the K per-segment top-k lists). Spark parallelizes over source
  * rows. Scores are 1/(1+L1), so fusion can add them.
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
    val bcTgt = spark.sparkContext.broadcast(VecOps.flatten(tgtVecs))
    val blocks = spark.sparkContext
      .parallelize(srcVecs.zipWithIndex.toIndexedSeq, math.min(64, math.max(1, srcVecs.length / 256)))
      .map { case (sv, sid) =>
        val (tgt, score) = VecOps.l1TopK(sv, bcTgt.value, k)
        SimMatrix.Block(Array.fill(tgt.length)(sid), tgt, score)
      }
      .collect()
    SimMatrix.fromBlocks(spark, srcVecs.length, tgtVecs.length, blocks)
  }
}
