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
  * matrix is broadcast in K segments and each source row streams over the
  * segments keeping a bounded top-k heap (identical result to merging the
  * K per-segment top-k lists, with less bookkeeping). Spark parallelizes
  * over source rows. Scores are 1/(1+L1), so fusion can add them.
  */
object Sens {

  /** Build Mse.
    *
    * @param srcVecs  semantic embeddings of the source entities (id-indexed)
    * @param tgtVecs  semantic embeddings of the target entities (id-indexed)
    * @param k        top-k retained per source entity (paper φ = 50)
    * @param segments number of target segments (paper's K); only affects
    *                 traversal order / memory granularity, not the result
    */
  def similarity(
      spark: SparkSession,
      srcVecs: Array[Array[Float]],
      tgtVecs: Array[Array[Float]],
      k: Int,
      segments: Int = 4): SimMatrix = {
    val nT = tgtVecs.length
    val segBounds: Array[(Int, Int)] = segmentBounds(nT, segments)
    val bcTgt = spark.sparkContext.broadcast(tgtVecs)
    val bcSeg = spark.sparkContext.broadcast(segBounds)

    val blocks = spark.sparkContext
      .parallelize(srcVecs.zipWithIndex.toIndexedSeq, math.min(64, math.max(1, srcVecs.length / 256)))
      .map { case (sv, sid) =>
        val tv = bcTgt.value
        val segs = bcSeg.value
        // bounded min-heap over (sim, tgt)
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
        // the heap yields the worst cell first: reversed, the row is in rank order
        val row = Array.fill(heap.size)(heap.poll()).reverse
        SimMatrix.Block(Array.fill(row.length)(sid), row.map(_._2), row.map(_._1))
      }
      .collect()
    SimMatrix.fromBlocks(spark, srcVecs.length, nT, blocks)
  }

  /** [lo, hi) bounds of `segments` near-equal slices of 0..n. */
  private[name] def segmentBounds(n: Int, segments: Int): Array[(Int, Int)] = {
    val s = math.max(1, segments)
    Array.tabulate(s) { i =>
      val lo = (n.toLong * i / s).toInt
      val hi = (n.toLong * (i + 1) / s).toInt
      (lo, hi)
    }.filter { case (lo, hi) => hi > lo }
  }
}
