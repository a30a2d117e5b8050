package repro.partition

import repro.{SparkSpec, TestGraphs}
import repro.exp.Datasets
import repro.kg.KGGen

/** Unit tests for METIS-CPS (the paper's collaborative partition strategy). */
class MetisCpsSpec extends SparkSpec {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())
  private lazy val cps = MetisCps
  private lazy val batches = cps.partition(ds, 3, ds.trainPairs, seed = 7)

  test("every entity on both sides gets a valid batch") {
    assert(batches.srcPart.length == 300 && batches.srcPart.forall(p => p >= 0 && p < 3))
    assert(batches.tgtPart.length == 300 && batches.tgtPart.forall(p => p >= 0 && p < 3))
  }

  test("train-seed colocation is high (phase 1 keeps seed groups together)") {
    val rate = batches.colocationRate(ds.trainPairs)
    assert(rate > 0.6, s"train colocation too low: $rate")
  }

  test("test colocation beats VPS (the paper's Table 5 headline)") {
    val vps = Vps.partition(ds, 3, ds.trainPairs, seed = 7)
    val cpsTest = batches.colocationRate(ds.testPairs)
    val vpsTest = vps.colocationRate(ds.testPairs)
    info(f"METIS-CPS test colocation: ${cpsTest * 100}%.1f%% vs VPS ${vpsTest * 100}%.1f%%")
    assert(cpsTest > vpsTest, s"cps=$cpsTest vps=$vpsTest")
  }

  test("source-side edge cut is far below VPS's") {
    val g = TestGraphs.graph(300, ds.source.undirectedEdges.map { case (u, v) => (u, v, 1.0) })
    val vps = Vps.partition(ds, 3, ds.trainPairs, seed = 7)
    val cpsCut = Metis.cutWeight(g, batches.srcPart)
    val vpsCut = Metis.cutWeight(g, vps.srcPart)
    info(s"src cut: cps=$cpsCut vps=$vpsCut")
    assert(cpsCut < vpsCut * 0.7, s"cps=$cpsCut vps=$vpsCut")
  }

  test("batches are paired by seed count (pairing keeps seed-heavy pairs)") {
    // Unlike VPS, METIS-CPS cannot guarantee every batch a seed (it also
    // optimizes structure preservation); but the pairing must keep the
    // bulk of the seeds colocated and spread over multiple batches.
    val perBatch = Array.fill(3)(0)
    ds.trainPairs.foreach { case (s, t) =>
      if (batches.srcPart(s.toInt) == batches.tgtPart(t.toInt))
        perBatch(batches.srcPart(s.toInt)) += 1
    }
    assert(perBatch.sum > ds.trainPairs.length / 2,
      s"pairing lost most seeds: ${perBatch.toSeq}")
    assert(perBatch.count(_ > 0) >= 2, s"seeds collapsed into one batch: ${perBatch.toSeq}")
  }

  test("deterministic in the seed") {
    val a = cps.partition(ds, 3, ds.trainPairs, seed = 13)
    val b = cps.partition(ds, 3, ds.trainPairs, seed = 13)
    assert(a.srcPart.toSeq == b.srcPart.toSeq && a.tgtPart.toSeq == b.tgtPart.toSeq)
  }

  test("batch sizes are balanced within tolerance") {
    val s = batches.srcSizes; val t = batches.tgtSizes
    assert(s.min > 40 && s.max < 200, s"src sizes ${s.toSeq}")
    assert(t.min > 40 && t.max < 200, s"tgt sizes ${t.toSeq}")
  }

  test("works with k=1 (no partition)") {
    val b = cps.partition(ds, 1, ds.trainPairs, seed = 3)
    assert(b.srcPart.forall(_ == 0) && b.tgtPart.forall(_ == 0))
    assert(b.colocationRate(ds.truthPairs) == 1.0)
  }

  test("works with empty seeds (falls back to pure METIS both sides)") {
    val b = cps.partition(ds, 3, Array.empty, seed = 3)
    assert(b.srcPart.forall(p => p >= 0 && p < 3))
    assert(b.tgtPart.forall(p => p >= 0 && p < 3))
  }

  test("more seeds give equal or better truth colocation") {
    val few = cps.partition(ds, 3, ds.trainPairs.take(15), seed = 5)
    val many = cps.partition(ds, 3, ds.truthPairs, seed = 5)
    val rFew = few.colocationRate(ds.truthPairs)
    val rMany = many.colocationRate(ds.truthPairs)
    info(s"colocation few=$rFew many=$rMany")
    assert(rMany >= rFew - 0.05, "seed guidance should not hurt")
  }
}
