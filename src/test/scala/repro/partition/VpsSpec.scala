package repro.partition

import repro.SparkSpec
import repro.exp.Datasets
import repro.kg.KGGen

/** Unit tests for the vanilla partition strategy. */
class VpsSpec extends SparkSpec {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())

  test("every entity on both sides gets a batch") {
    val b = Vps.partition(ds, 4, ds.trainPairs, seed = 1)
    assert(b.srcPart.length == 300 && b.srcPart.forall(p => p >= 0 && p < 4))
    assert(b.tgtPart.length == 300 && b.tgtPart.forall(p => p >= 0 && p < 4))
  }

  test("seeds are spread equally across batches") {
    val seeds = ds.trainPairs // 60 seeds
    val b = Vps.partition(ds, 4, seeds, seed = 1)
    val perBatch = seeds.groupBy { case (s, _) => b.srcPart(s.toInt) }.view.mapValues(_.length)
    assert(perBatch.values.toSet.size == 1, s"unequal: ${perBatch.toMap}")
  }

  test("all seed pairs are co-located (train colocation = 100%)") {
    val b = Vps.partition(ds, 5, ds.trainPairs, seed = 2)
    assert(b.colocationRate(ds.trainPairs) == 1.0)
  }

  test("test-set colocation is near 1/k (random assignment)") {
    val k = 5
    val b = Vps.partition(ds, k, ds.trainPairs, seed = 3)
    val rate = b.colocationRate(ds.testPairs)
    assert(rate > 0.05 && rate < 0.45, s"expected ~${1.0 / k}, got $rate")
  }

  test("deterministic in the seed") {
    val a = Vps.partition(ds, 3, ds.trainPairs, seed = 9)
    val b = Vps.partition(ds, 3, ds.trainPairs, seed = 9)
    assert(a.srcPart.toSeq == b.srcPart.toSeq && a.tgtPart.toSeq == b.tgtPart.toSeq)
  }

  test("batch sizes are roughly balanced") {
    val b = Vps.partition(ds, 3, ds.trainPairs, seed = 4)
    val sizes = b.srcSizes
    assert(sizes.min > 50 && sizes.max < 180, s"sizes=${sizes.toSeq}")
  }

  test("k < 1 is rejected") {
    intercept[IllegalArgumentException](Vps.partition(ds, 0, ds.trainPairs, seed = 1))
    intercept[IllegalArgumentException](Vps.partition(ds, -1, ds.trainPairs, seed = 1))
  }

  test("MiniBatches rejects k < 1 and batch ids outside [0, k)") {
    intercept[IllegalArgumentException](MiniBatches(0, Array.empty, Array.empty))
    intercept[IllegalArgumentException](MiniBatches(2, Array(0, 2, 1), Array(0, 0, 1)))
    intercept[IllegalArgumentException](MiniBatches(2, Array(0, 1, 0), Array(0, -1, 1)))
  }

  test("colocationRate helper math") {
    val b = MiniBatches(2, Array(0, 1, 0), Array(0, 0, 1))
    assert(math.abs(b.colocationRate(Array((0L, 0L), (1L, 1L), (2L, 2L))) - 1.0 / 3) < 1e-12)
    assert(b.colocationRate(Array.empty[(Long, Long)]) == 0.0)
  }
}
