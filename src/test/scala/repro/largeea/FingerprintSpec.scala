package repro.largeea

import java.security.MessageDigest
import repro.SparkSpec
import repro.exp.Datasets
import repro.kg.KGGen
import repro.name.Nff
import repro.sim.SimMatrix
import repro.structure.GnnEA

/** Golden fingerprints of the name channel and the fused matrix on the tiny
  * dataset: a rewrite of STNS, `SimMatrix.plus` or anything upstream that
  * moves one cell, one rank or one score bit changes a hash here.
  */
class FingerprintSpec extends SparkSpec {

  /** SHA-256 of `rowPtr`, `tgt` and the raw bits of `score`, in that order. */
  private def fingerprint(m: SimMatrix): String = {
    val buf = java.nio.ByteBuffer.allocate(4 * (m.rowPtr.length + m.tgt.length) + 8 * m.score.length)
    m.rowPtr.foreach(buf.putInt)
    m.tgt.foreach(buf.putInt)
    m.score.foreach(v => buf.putLong(java.lang.Double.doubleToRawLongBits(v)))
    MessageDigest.getInstance("SHA-256").digest(buf.array()).map(b => f"$b%02x").mkString
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
}
