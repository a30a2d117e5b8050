package repro.structure

import org.scalacheck.{Gen, Prop}
import repro.{PropHelper, ReferenceKernels, SparkSpec, TestGraphs}
import repro.exp.Datasets
import repro.kg.{EaDataset, KG, KGGen}
import repro.partition.{MetisCps, MiniBatches, Vps}
import repro.sim.SimMatrix

/** Unit tests for the mini-batch structure channel. */
class StructChannelSpec extends SparkSpec with PropHelper {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())

  test("Ms support is block-diagonal w.r.t. the mini-batches") {
    val batches = MetisCps.partition(ds, 3, ds.trainPairs, seed = 7)
    val ms = StructChannel.computeMs(spark, ds, batches, ds.trainPairs, GnnEA.Gcn, topK = 5)
    ms.cells.foreach { case (s, t, _) =>
      assert(batches.srcPart(s) == batches.tgtPart(t),
        s"cell ($s,$t) crosses batches ${batches.srcPart(s)} vs ${batches.tgtPart(t)}")
    }
  }

  test("top-k per source entity is respected") {
    val batches = Vps.partition(ds, 2, ds.trainPairs, seed = 7)
    val ms = StructChannel.computeMs(spark, ds, batches, ds.trainPairs, GnnEA.Gcn, topK = 5)
    val counts = (0 until ms.numRows).map(s => ms.rowPtr(s + 1) - ms.rowPtr(s))
    assert(counts.forall(_ <= 5))
    assert(ms.nnz == 300 * 5) // every source entity has a row (batches nonempty)
  }

  test("k=1 (no partition) scores all entities in one block") {
    val whole = MiniBatches(1, Array.fill(300)(0), Array.fill(300)(0))
    val ms = StructChannel.computeMs(spark, ds, whole, ds.trainPairs, GnnEA.Rrea, topK = 10)
    val scores = repro.eval.Metrics.evaluate(ms, ds.testPairs)
    info(s"structure-only w/o partition: ${scores.pretty}")
    // training-free propagation is weaker than a gradient-trained RREA in
    // absolute terms (DESIGN.md §2); what matters is a clear signal here
    assert(scores.hits1 > 0.3, "full-graph seeded propagation should align a clear fraction")
  }

  test("METIS-CPS batches beat VPS batches on structure-only H@1") {
    val cps = MetisCps.partition(ds, 3, ds.trainPairs, seed = 7)
    val vps = Vps.partition(ds, 3, ds.trainPairs, seed = 7)
    val mCps = StructChannel.computeMs(spark, ds, cps, ds.trainPairs, GnnEA.Rrea, 10)
    val mVps = StructChannel.computeMs(spark, ds, vps, ds.trainPairs, GnnEA.Rrea, 10)
    val sCps = repro.eval.Metrics.evaluate(mCps, ds.testPairs)
    val sVps = repro.eval.Metrics.evaluate(mVps, ds.testPairs)
    info(s"CPS: ${sCps.pretty}  VPS: ${sVps.pretty}")
    assert(sCps.hits1 > sVps.hits1, s"cps=${sCps.hits1} vps=${sVps.hits1}")
  }

  test("partitioned training loses accuracy vs no partition (paper §3.4)") {
    val whole = MiniBatches(1, Array.fill(300)(0), Array.fill(300)(0))
    val cps = MetisCps.partition(ds, 3, ds.trainPairs, seed = 7)
    val sWhole = repro.eval.Metrics.evaluate(
      StructChannel.computeMs(spark, ds, whole, ds.trainPairs, GnnEA.Rrea, 10), ds.testPairs)
    val sCps = repro.eval.Metrics.evaluate(
      StructChannel.computeMs(spark, ds, cps, ds.trainPairs, GnnEA.Rrea, 10), ds.testPairs)
    info(s"w/o p.: ${sWhole.pretty}  CPS: ${sCps.pretty}")
    assert(sWhole.hits1 >= sCps.hits1)
  }

  test("RREA variant beats GCN variant (paper's model ordering)") {
    val cps = MetisCps.partition(ds, 3, ds.trainPairs, seed = 7)
    val r = repro.eval.Metrics.evaluate(
      StructChannel.computeMs(spark, ds, cps, ds.trainPairs, GnnEA.Rrea, 10), ds.testPairs)
    val g = repro.eval.Metrics.evaluate(
      StructChannel.computeMs(spark, ds, cps, ds.trainPairs, GnnEA.Gcn, 10), ds.testPairs)
    info(s"RREA: ${r.pretty}  GCN: ${g.pretty}")
    assert(r.hits1 >= g.hits1 - 0.02, s"rrea=${r.hits1} gcn=${g.hits1}")
  }

  test("more seeds improve structure-only accuracy (Fig. 6 shape)") {
    val few = ds.trainPairs.take(20)
    val many = ds.truthPairs.take(150)
    def h1(seeds: Array[(Long, Long)]): Double = {
      val b = MetisCps.partition(ds, 3, seeds, seed = 7)
      repro.eval.Metrics.evaluate(
        StructChannel.computeMs(spark, ds, b, seeds, GnnEA.Rrea, 10), ds.testPairs).hits1
    }
    val hFew = h1(few); val hMany = h1(many)
    info(s"H@1 few=$hFew many=$hMany")
    assert(hMany > hFew)
  }

  test("scores are valid similarities in (0,1]") {
    val batches = Vps.partition(ds, 2, ds.trainPairs, seed = 1)
    val ms = StructChannel.computeMs(spark, ds, batches, ds.trainPairs, GnnEA.Gcn, 3)
    val vals = ms.score
    assert(vals.forall(v => v > 0 && v <= 1.0 + 1e-9))
  }

  test("topK = 0 keeps no cell and topK < 0 is rejected") {
    val batches = Vps.partition(ds, 2, ds.trainPairs, seed = 7)
    assert(StructChannel.computeMs(spark, ds, batches, ds.trainPairs, GnnEA.Gcn, topK = 0).nnz == 0)
    intercept[IllegalArgumentException](
      StructChannel.computeMs(spark, ds, batches, ds.trainPairs, GnnEA.Gcn, topK = -1))
  }

  test("computeMs rejects batches that do not assign every entity") {
    val short = MiniBatches(1, Array.fill(299)(0), Array.fill(300)(0))
    val long = MiniBatches(1, Array.fill(300)(0), Array.fill(301)(0))
    for (b <- Seq(short, long))
      intercept[IllegalArgumentException](StructChannel.computeMs(spark, ds, b, ds.trainPairs, GnnEA.Gcn, topK = 5))
  }

  test("property: the one-pass cut equals the former per-task cut of every batch") {
    // random graphs with self-loops, random parts (so some batches are
    // empty) and seeds whose two ends are often in different batches
    val gen = for {
      k      <- Gen.choose(1, 4)
      src    <- TestGraphs.gen
      tgt    <- TestGraphs.gen
      sPart  <- Gen.listOfN(src._1, Gen.choose(0, k - 1))
      tPart  <- Gen.listOfN(tgt._1, Gen.choose(0, k - 1))
      nSeeds <- Gen.choose(0, 15)
      seeds  <- Gen.listOfN(nSeeds, Gen.zip(Gen.choose(0L, src._1 - 1L), Gen.choose(0L, tgt._1 - 1L)))
    } yield (src, tgt, MiniBatches(k, sPart.toArray, tPart.toArray), seeds.toArray)
    checkProp(Prop.forAll(gen) { case ((nS, sT), (nT, tT), batches, seeds) =>
      val names = (n: Int) => Array.fill(n)("e")
      val data = EaDataset.fromLocal("cut", KG.fromLocal(spark, "s", names(nS), sT),
        KG.fromLocal(spark, "t", names(nT), tT), Nil, Nil, Nil, Map.empty)
      val cut = StructChannel.cut(data, batches, seeds)
      cut.length == batches.k && cut.indices.forall { b =>
        val (srcIds, tgtIds, srcT, tgtT, srcA, tgtA) =
          ReferenceKernels.batch(b, nS, nT, sT, tT, batches.srcPart, batches.tgtPart, seeds)
        val c = cut(b)
        c.index == b && c.srcIds.toSeq == srcIds.toSeq && c.tgtIds.toSeq == tgtIds.toSeq &&
          StructChannel.triples(c.srcTriples).toSeq == srcT.toSeq &&
          StructChannel.triples(c.tgtTriples).toSeq == tgtT.toSeq &&
          c.srcAnchors.toSeq == srcA.toSeq && c.tgtAnchors.toSeq == tgtA.toSeq
      }
    }, minSuccessful = 300)
  }

  test("computeMs equals its batches trained one by one on the driver") {
    val batches = MetisCps.partition(ds, 3, ds.trainPairs, seed = 7)
    def bits(m: SimMatrix) = (m.rowPtr.toSeq, m.tgt.toSeq, m.score.map(java.lang.Double.doubleToRawLongBits).toSeq)
    for (cfg <- Seq(GnnEA.Gcn, GnnEA.Rrea)) {
      val ms = StructChannel.computeMs(spark, ds, batches, ds.trainPairs, cfg, topK = 5)
      val blocks = StructChannel.cut(ds, batches, ds.trainPairs).map(StructChannel.trainBatch(_, cfg, 5))
      assert(bits(ms) == bits(SimMatrix.fromBlocks(spark, 300, 300, blocks)))
    }
  }

  test("trainBatch leaves its batch unchanged, so a second call gives the same block") {
    val batches = MetisCps.partition(ds, 3, ds.trainPairs, seed = 7)
    StructChannel.cut(ds, batches, ds.trainPairs).foreach { batch =>
      val (srcA, tgtA) = (batch.srcAnchors.toSeq, batch.tgtAnchors.toSeq)
      def block() = {
        val b = StructChannel.trainBatch(batch, GnnEA.Rrea, 5) // bootstrap rounds add anchors
        (b.src.toSeq, b.tgt.toSeq, b.score.map(java.lang.Double.doubleToRawLongBits).toSeq)
      }
      assert(block() == block())
      assert(batch.srcAnchors.toSeq == srcA && batch.tgtAnchors.toSeq == tgtA)
    }
  }

  test("property: single-pass mutualNN equals the two-pass reference") {
    // vectors drawn from a small pool, so rows and columns often tie
    val gen = for {
      dim   <- Gen.choose(1, 6)
      pool  <- Gen.listOfN(5, Gen.listOfN(dim, Gen.choose(-1f, 1f)).map(_.toArray))
      nS    <- Gen.choose(0, 14)
      nT    <- Gen.choose(0, 14)
      hs    <- Gen.listOfN(nS, Gen.oneOf(pool))
      ht    <- Gen.listOfN(nT, Gen.oneOf(pool))
      skipS <- Gen.listOfN(nS, Gen.prob(0.3))
      skipT <- Gen.listOfN(nT, Gen.prob(0.3))
    } yield (hs.toArray, ht.toArray, skipS.toArray, skipT.toArray)
    checkProp(Prop.forAll(gen) { case (hs, ht, skipS, skipT) =>
      def set(mask: Array[Boolean]) = mask.indices.filter(mask).toSet
      StructChannel.mutualNN(hs, ht, skipS, skipT).toSeq ==
        ReferenceKernels.mutualNN(hs, ht, set(skipS), set(skipT)).toSeq
    }, minSuccessful = 300)
  }
  test("property: mutualNN equals the two-pass reference at dims 48-192 with tied vectors") {
    // RREA's dims; a pool of vectors plus copies one float ulp off, so
    // row and column argmaxes often tie or nearly tie
    val gen = for {
      dim   <- Gen.choose(48, 192)
      pool  <- Gen.listOfN(4, Gen.listOfN(dim, Gen.choose(-0.2f, 0.2f)).map(_.toArray))
      nS    <- Gen.choose(1, 25)
      nT    <- Gen.choose(1, 25)
      pickS <- Gen.listOfN(nS, Gen.zip(Gen.choose(0, 3), Gen.choose(0, dim - 1), Gen.oneOf(0, 0, 1)))
      pickT <- Gen.listOfN(nT, Gen.zip(Gen.choose(0, 3), Gen.choose(0, dim - 1), Gen.oneOf(0, 0, 1)))
      skipS <- Gen.listOfN(nS, Gen.prob(0.2))
      skipT <- Gen.listOfN(nT, Gen.prob(0.2))
    } yield {
      def vecs(picks: List[(Int, Int, Int)]) = picks.map { case (p, d, ulp) =>
        val v = pool(p).clone(); if (ulp == 1) v(d) = Math.nextUp(v(d)); v
      }.toArray
      (vecs(pickS), vecs(pickT), skipS.toArray, skipT.toArray)
    }
    checkProp(Prop.forAll(gen) { case (hs, ht, skipS, skipT) =>
      def set(mask: Array[Boolean]) = mask.indices.filter(mask).toSet
      StructChannel.mutualNN(hs, ht, skipS, skipT).toSeq ==
        ReferenceKernels.mutualNN(hs, ht, set(skipS), set(skipT)).toSeq
    }, minSuccessful = 300)
  }
}
