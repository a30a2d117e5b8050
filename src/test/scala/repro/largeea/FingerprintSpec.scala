package repro.largeea

import java.security.MessageDigest
import repro.SparkSpec
import repro.baselines.Baselines
import repro.exp.Datasets
import repro.kg.{KG, KGGen}
import repro.name.Nff
import repro.partition.MetisCps
import repro.sim.SimMatrix
import repro.structure.{GnnEA, StructChannel}

/** Golden fingerprints of the tiny datasets' triples and edges, the
  * METIS-CPS batches, the structure channel, RDGCN-lite, the name channel
  * and the fused matrix: a rewrite of the generator, the KG arrays, the
  * partitioner, the GNN, STNS, `SimMatrix.plus` or anything upstream that
  * moves one triple, one edge, one part, one cell, one rank or one score bit
  * changes a hash here.
  */
class FingerprintSpec extends SparkSpec {

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"$b%02x").mkString

  /** SHA-256 of `ints`, big-endian. */
  private def fingerprint(ints: Array[Int]): String = {
    val buf = java.nio.ByteBuffer.allocate(4 * ints.length)
    ints.foreach(buf.putInt)
    sha256(buf.array())
  }

  /** SHA-256 of `rowPtr`, `tgt` and the raw bits of `score`, in that order. */
  private def fingerprint(m: SimMatrix): String = {
    val buf = java.nio.ByteBuffer.allocate(4 * (m.rowPtr.length + m.tgt.length) + 8 * m.score.length)
    m.rowPtr.foreach(buf.putInt)
    m.tgt.foreach(buf.putInt)
    m.score.foreach(v => buf.putLong(java.lang.Double.doubleToRawLongBits(v)))
    sha256(buf.array())
  }

  /** The undirected edges' u ends, then their v ends. */
  private def edgeInts(kg: KG): Array[Int] = {
    val (us, vs) = kg.undirectedEdges
    us ++ vs
  }

  private lazy val forward = KGGen.generate(spark, Datasets.tiny())

  /** Direction -> (Mst, Mn, fused M with DA, fused M without DA). */
  private val golden = Map(
    "tiny-fr" -> Seq(
      "4aa2e34ad67dc1e501c4d9a62b9fd25ad6b7bbd9a80ccc152965b05333779bc2",
      "c04c2fc2c0904aa0ea94edf0d9df3d57c25c06fc891d9a649681e01290f4ddb5",
      "4fc86faf0079b0fb53c4cae67cc0c341ce8f60dd79fdc3a796846eceda240907",
      "37db70447c88cd98dcb64cb308d14e8f3fb4ca98d0938e5b929dda39e336ecc9"),
    "tiny-fr-rev" -> Seq(
      "ae086e14f211f9c8f33991339a4b638227e4efac4e4c9d13b04d70187ff70287",
      "af9aa964f02b3f08c61d3e83ee9a7ac35c3647902f5a0b13c2709d825d8d55eb",
      "348b549a0c53308f876059b1091b6fffac64b4103b3c437be6ed1c92c4a5ae39",
      "6d0f5eb55a19d653023de91633caec1617557b0981582a4716301cd636d24c97"))

  for (dir <- Seq("tiny-fr", "tiny-fr-rev")) test(s"Mst, Mn and the fused M keep their bits on $dir") {
    val ds = if (dir == "tiny-fr") forward else forward.reversed
    val nff = Nff.compute(spark, ds)
    def fused(da: Boolean) = LargeEA.run(spark, ds, LargeEA.Config(model = GnnEA.Rrea, k = 3, useDataAug = da)).fused
    val got = Seq(nff.mst, nff.mn, fused(true), fused(false)).map(fingerprint)
    info(s"$dir: ${got.mkString(" ")}")
    assert(got == golden(dir))
  }

  /** Dataset -> item -> hash, for the structure side of the pipeline. */
  private val goldenStructure = Map(
    "tiny-fr" -> Seq(
      "source triples" -> "24477f1150193aa5964b4982c66b4b9153adb6e93f33bd6657b5d137471f14cb",
      "target triples" -> "eccad418e0c5ce66d0d5a569373cedc60b916a853e7ed708552731d9d22ccf88",
      "source edges" -> "4c86eed9a7754d174ee7014daf2cb2f0fd951a84230d36a08b415b7a31d97db2",
      "target edges" -> "21dfb9a23fb92543b1473baf5147b5e4ef39e19f5d46991cf75d8936ef1a5ab6",
      "METIS-CPS srcPart" -> "ee2ac1a0cf8cb34408505dad6ffe5eb07b9d008031a404584330a19ccf15cfe5",
      "METIS-CPS tgtPart" -> "9200c5d7820ed3585def6446824c767ba33b752149a8c918b2c5099f61308fa1",
      "GCN Ms" -> "3d7402362f711c44cfedbf96936de6fcd7b097eec73d0b9de65e7f6a7aa6cfaf",
      "RREA Ms" -> "f1af63fe26d0c3addf135452e50442436c032157675ec0e449c48eea67d12a36",
      "RDGCN-lite M" -> "b942a690ddf7a5e74c53064bab930fda3272abbf5d5ed356393425d631c86eb4"),
    "tiny-unk" -> Seq(
      "source triples" -> "70abdcaa1a756b20bc8984720ba1018bc3a1def53fb3375eb422817ded7b4ac4",
      "target triples" -> "8874431250d610b7ef5bfcb13a3ef1a4741346af5e1b407eb9fcc5674923ad13",
      "source edges" -> "ad69dc42c0670d58441140bbecdc586b30d31e33d6f4145d5903f57852e28c0e",
      "target edges" -> "71b3578ae905576a5310eabf0ee476b7d5cf56f255519d4a0b1b26ad3fe52651",
      "METIS-CPS srcPart" -> "0587c1b1cf5eceda26773bbf5a09969780b4e608e99ccf492f0f1d069169bab2",
      "METIS-CPS tgtPart" -> "1897e853d3e390930f0d33bf6ca7aff71f30dc04c4bb64bbf816bcd375345561",
      "GCN Ms" -> "6d5532eb4495cca385d3d0cff843adb62886e275eab74c0e2bbfa283970ba4ba",
      "RREA Ms" -> "69dc8d5c4aa49f5be352bf887841302666a69ed8e5fc63ad89bc17feb44ade01",
      "RDGCN-lite M" -> "10956030056ec3468f18983a6b8e6bb4ab2864c4feb06cbc696850668776f5fd"))

  for (name <- Seq("tiny-fr", "tiny-unk"))
    test(s"triples, edges, METIS-CPS batches, GCN and RREA Ms and RDGCN-lite keep their bits on $name") {
      val ds = if (name == "tiny-fr") forward else KGGen.generate(spark, Datasets.tinyWithUnknowns())
      val batches = MetisCps.partition(ds, 3, ds.trainPairs, seed = 7)
      def ms(cfg: GnnEA.Config) =
        fingerprint(StructChannel.computeMs(spark, ds, batches, ds.trainPairs, cfg, Nff.Phi))
      val got = Seq(
        "source triples" -> fingerprint(ds.source.triplesArray), // h, r, t interleaved, in generation order
        "target triples" -> fingerprint(ds.target.triplesArray),
        "source edges" -> fingerprint(edgeInts(ds.source)),
        "target edges" -> fingerprint(edgeInts(ds.target)),
        "METIS-CPS srcPart" -> fingerprint(batches.srcPart),
        "METIS-CPS tgtPart" -> fingerprint(batches.tgtPart),
        "GCN Ms" -> ms(GnnEA.Gcn),
        "RREA Ms" -> ms(GnnEA.Rrea),
        "RDGCN-lite M" -> fingerprint(Baselines.rdgcn(spark, ds)))
      got.foreach { case (item, h) => info(s"$name $item: $h") }
      assert(got == goldenStructure(name))
    }
}
