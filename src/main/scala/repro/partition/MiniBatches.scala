package repro.partition

import repro.kg.EaDataset

/** Result of mini-batch generation: a batch id per source entity and per
  * target entity. Batch `b` consists of source subgraph {e : srcPart(e)=b}
  * together with target subgraph {e : tgtPart(e)=b} (already paired by the
  * strategy — METIS-CPS pairs subgraphs by maximal shared seed count).
  * Construction throws IllegalArgumentException unless k >= 1 and every
  * batch id is in [0, k).
  */
final case class MiniBatches(k: Int, srcPart: Array[Int], tgtPart: Array[Int]) {

  require(k >= 1, s"k must be >= 1, got $k")
  for ((part, side) <- Seq((srcPart, "source"), (tgtPart, "target")); e <- part.indices)
    require(part(e) >= 0 && part(e) < k, s"$side entity $e is in batch ${part(e)}, outside [0, $k)")

  /** Fraction of `pairs` whose two sides land in the same mini-batch.
    * This is the paper's Table 5 metric ("percentage of equivalent
    * entities that are placed into the same mini-batches").
    */
  def colocationRate(pairs: Array[(Long, Long)]): Double = {
    if (pairs.isEmpty) return 0.0
    val ok = pairs.count { case (s, t) => srcPart(s.toInt) == tgtPart(t.toInt) }
    ok.toDouble / pairs.length
  }

  /** Batch sizes on the source side. */
  def srcSizes: Array[Int] = sizes(srcPart)
  def tgtSizes: Array[Int] = sizes(tgtPart)

  private def sizes(part: Array[Int]): Array[Int] = {
    val s = new Array[Int](k)
    part.foreach(p => s(p) += 1)
    s
  }
}

/** A mini-batch generation strategy (paper §2.2.1). */
trait PartitionStrategy {
  def name: String

  /** Partition `ds` into `k` mini-batches using `seeds` (the training
    * alignment ψ′, possibly augmented with pseudo seeds).
    */
  def partition(ds: EaDataset, k: Int, seeds: Array[(Long, Long)], seed: Long): MiniBatches
}
