package repro.name

import repro.{Oracle, SparkSpec}
import repro.exp.Datasets
import repro.kg.KGGen
import repro.sim.SimMatrix
import org.apache.spark.sql.functions._

/** Unit tests for NFF fusion and name-based data augmentation. */
class NffDataAugSpec extends SparkSpec {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())
  private lazy val nff = Nff.compute(spark, ds)

  test("Mn = Mse + gamma*Mst on the union of supports") {
    val mse = SimMatrix.fromLocal(spark, Seq((0L, 1L, 0.8), (0L, 2L, 0.5)), 16, 16)
    val mst = SimMatrix.fromLocal(spark, Seq((0L, 1L, 1.0), (3L, 3L, 0.4)), 16, 16)
    val mn = mse.plus(mst, 0.05)
    assert(mn.row(0).map(_._1).toSeq == Seq(1, 2))
    assert(math.abs(mn.row(0)(0)._2 - 0.85) < 1e-12)
    assert(math.abs(mn.row(0)(1)._2 - 0.5) < 1e-12)
    assert(math.abs(mn.row(3)(0)._2 - 0.02) < 1e-12)
  }

  test("NFF produces all three matrices with sane sizes") {
    assert(nff.mse.nnz == 300 * Nff.Phi)
    assert(nff.mst.nnz > 0)
    assert(nff.mn.nnz >= nff.mse.nnz)
  }

  test("name-only H@1 is strong on the tiny dataset") {
    val scores = repro.eval.Metrics.evaluate(nff.mn, ds.testPairs)
    info(s"name-only: ${scores.pretty}")
    assert(scores.hits1 > 0.7)
  }

  /** The reference definition of DA: window ranks on both sides, then the
    * runner-up margin.
    */
  private def assertOracleSeeds(mn: SimMatrix, margin: Double): Unit = {
    val pseudo = DataAug.pseudoSeeds(mn, margin)
      .select(col("src").cast("string").as("src"), col("tgt").cast("string").as("tgt"))
    Oracle.assertEquivalent(
      pseudo,
      s"""WITH ranked AS (
        |  SELECT src, tgt, CAST(score AS DOUBLE) AS s,
        |    ROW_NUMBER() OVER (PARTITION BY src
        |      ORDER BY CAST(score AS DOUBLE) DESC, CAST(tgt AS BIGINT) ASC) AS rs,
        |    ROW_NUMBER() OVER (PARTITION BY tgt
        |      ORDER BY CAST(score AS DOUBLE) DESC, CAST(src AS BIGINT) ASC) AS rt
        |  FROM mn),
        |second AS (SELECT src, s AS second FROM ranked WHERE rs = 2)
        |SELECT r.src AS src, r.tgt AS tgt
        |FROM ranked r LEFT JOIN second x ON r.src = x.src
        |WHERE r.rs = 1 AND r.rt = 1
        |  AND (x.second IS NULL OR r.s >= x.second * CAST('$margin' AS DOUBLE))""".stripMargin,
      "mn" -> mn.df)
  }

  test("pseudo seeds are mutual nearest neighbours (oracle SQL)") {
    assertOracleSeeds(nff.mn, 1.02)
  }

  test("pseudo seeds on argmax ties and at the exact margin match the oracle SQL") {
    val atMargin = 0.25 * 1.02
    val mn = SimMatrix.fromLocal(spark, Seq(
      (0L, 1L, 0.9), (0L, 2L, 0.9),                    // row argmax tie: target 1 wins
      (3L, 5L, 0.8), (3L, 6L, 0.1),                    // column argmax tie on 5:
      (4L, 5L, 0.8), (4L, 7L, 0.1),                    //   source 3 wins
      (8L, 9L, atMargin), (8L, 10L, 0.25),             // exactly second * 1.02: a seed
      (11L, 12L, math.nextDown(atMargin)), (11L, 13L, 0.25)), 16, 16) // just below: not one
    assert(DataAug.pseudoSeedPairs(mn).toSeq == Seq((3L, 5L), (8L, 9L)))
    assert(DataAug.pseudoSeedPairs(mn, margin = 1.0).toSeq == Seq((0L, 1L), (3L, 5L), (8L, 9L), (11L, 12L)))
    assertOracleSeeds(mn, 1.02)
    assertOracleSeeds(mn, 1.0)
  }

  test("pseudo seeds are 1-to-1") {
    val p = DataAug.pseudoSeedPairs(nff.mn)
    assert(p.map(_._1).distinct.length == p.length)
    assert(p.map(_._2).distinct.length == p.length)
  }

  test("pseudo-seed precision is high (paper reports ~94% on DBP1M)") {
    val p = DataAug.pseudoSeedPairs(nff.mn)
    val prec = DataAug.precision(p, ds.truthPairs)
    info(f"pseudo seeds: ${p.length}, precision ${prec * 100}%.1f%%")
    assert(prec > 0.85)
    assert(p.length > 100)
  }

  test("mergeSeeds keeps real seeds and stays 1-to-1") {
    val real = Array((1L, 10L), (2L, 20L))
    val pseudo = Array((1L, 99L), (3L, 20L), (4L, 40L), (5L, 40L))
    val merged = DataAug.mergeSeeds(real, pseudo)
    assert(merged.toSet == Set((1L, 10L), (2L, 20L), (4L, 40L)))
  }

  test("precision helper") {
    assert(DataAug.precision(Array((1L, 1L), (2L, 3L)), Array((1L, 1L), (2L, 2L))) == 0.5)
    assert(DataAug.precision(Array.empty, Array((1L, 1L))) == 0.0)
  }

  test("unknown entities reduce pseudo-seed count but not much precision") {
    val unk = KGGen.generate(spark, Datasets.tinyWithUnknowns())
    val n = Nff.compute(spark, unk)
    val p = DataAug.pseudoSeedPairs(n.mn)
    val prec = DataAug.precision(p, unk.truthPairs)
    info(f"with unknowns: ${p.length} seeds, precision ${prec * 100}%.1f%%")
    assert(prec > 0.6)
  }
}
