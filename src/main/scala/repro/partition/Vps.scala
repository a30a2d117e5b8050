package repro.partition

import repro.kg.EaDataset
import scala.util.Random

/** VPS — the vanilla partition strategy (paper §2.2.1).
  *
  * Allocates the seed alignment ψ′ into K mini-batches equally (both sides
  * of a seed pair go to the same batch, so every batch has the same number
  * of training seeds), then adds the remaining entities of both KGs to the
  * K batches at random. O(|Es| + |Et|) time and space.
  */
object Vps extends PartitionStrategy {
  override val name = "VPS"

  override def partition(
      ds: EaDataset, k: Int, seeds: Array[(Long, Long)], seed: Long): MiniBatches = {
    require(k >= 1, s"k must be >= 1, got $k")
    val nS = ds.source.numEntities.toInt
    val nT = ds.target.numEntities.toInt
    val rnd = new Random(seed)

    val srcPart = Array.fill(nS)(-1)
    val tgtPart = Array.fill(nT)(-1)

    // Seeds round-robin over a shuffled order: equal per-batch seed counts.
    val order = rnd.shuffle(seeds.toVector)
    order.zipWithIndex.foreach { case ((s, t), i) =>
      srcPart(s.toInt) = i % k
      tgtPart(t.toInt) = i % k
    }
    // Remaining entities at random.
    var i = 0
    while (i < nS) { if (srcPart(i) < 0) srcPart(i) = rnd.nextInt(k); i += 1 }
    i = 0
    while (i < nT) { if (tgtPart(i) < 0) tgtPart(i) = rnd.nextInt(k); i += 1 }

    MiniBatches(k, srcPart, tgtPart)
  }
}
