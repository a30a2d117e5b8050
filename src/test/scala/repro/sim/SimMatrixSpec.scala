package repro.sim

import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropHelper, ReferenceKernels, SparkSpec, TestMatrices}
import org.apache.spark.sql.functions._

/** Unit tests for the sparse similarity matrix, oracle-checked. */
class SimMatrixSpec extends SparkSpec with PropHelper {

  private lazy val a = SimMatrix.fromLocal(spark,
    Seq((0L, 0L, 0.9), (0L, 1L, 0.3), (1L, 1L, 0.7), (2L, 0L, 0.2)), 16, 16)
  private lazy val b = SimMatrix.fromLocal(spark,
    Seq((0L, 0L, 0.1), (1L, 2L, 0.5), (3L, 3L, 1.0)), 16, 16)

  private def scoreOf(m: SimMatrix, s: Int, t: Int): Double = m.row(s).find(_._1 == t).get._2

  test("plus adds over the union of supports") {
    val m = a.plus(b)
    assert(math.abs(scoreOf(m, 0, 0) - 1.0) < 1e-12)
    assert(math.abs(scoreOf(m, 1, 2) - 0.5) < 1e-12)
    assert(math.abs(scoreOf(m, 3, 3) - 1.0) < 1e-12)
    assert(m.nnz == 6)
  }

  test("plus with weight scales the other matrix") {
    val m = a.plus(b, 0.5)
    assert(math.abs(scoreOf(m, 0, 0) - 0.95) < 1e-12)
    assert(math.abs(scoreOf(m, 3, 3) - 0.5) < 1e-12)
  }

  test("plus agrees with DuckDB full-outer sum") {
    val fused = a.plus(b).df.select(
      col("src").cast("string").as("src"),
      col("tgt").cast("string").as("tgt"),
      format_number(col("score"), 6).as("score"))
    Oracle.assertEquivalent(
      fused,
      """SELECT src, tgt, printf('%.6f', SUM(s)) AS score FROM (
        |  SELECT src, tgt, CAST(score AS DOUBLE) AS s FROM ma
        |  UNION ALL
        |  SELECT src, tgt, CAST(score AS DOUBLE) AS s FROM mb
        |) GROUP BY src, tgt""".stripMargin,
      "ma" -> a.df, "mb" -> b.df)
  }

  test("plus re-sorts a row whose order the sum changes") {
    val m = a.plus(SimMatrix.fromLocal(spark, Seq((0L, 1L, 0.7)), 16, 16))
    assert(m.row(0).toSeq == Seq((1, 1.0), (0, 0.9)))
    assert(m.rank(0, 0) == 2)
  }

  test("row order ties break by target id ascending (oracle)") {
    val m = SimMatrix.fromLocal(spark,
      Seq((0L, 5L, 0.5), (0L, 3L, 0.5), (0L, 9L, 0.5), (1L, 2L, 0.1), (1L, 4L, 0.8)), 16, 16)
    val firstTwo = for (s <- 0 until m.numRows; (t, _) <- m.row(s).take(2)) yield (s.toString, t.toString)
    import spark.implicits._
    Oracle.assertEquivalent(
      firstTwo.toDF("src", "tgt"),
      """SELECT src, tgt FROM (
        |  SELECT src, tgt, ROW_NUMBER() OVER (PARTITION BY src
        |    ORDER BY CAST(score AS DOUBLE) DESC, CAST(tgt AS BIGINT) ASC) AS rn
        |  FROM m) WHERE rn <= 2""".stripMargin,
      "m" -> m.df)
  }

  test("nnz counts stored cells") {
    assert(a.nnz == 4)
    assert(SimMatrix.empty(spark).nnz == 0)
  }

  test("rows are sorted by score desc with target id tiebreak") {
    val m = SimMatrix.fromLocal(spark,
      Seq((0L, 2L, 0.5), (0L, 1L, 0.5), (0L, 3L, 0.9)), 16, 16)
    assert(m.row(0).toSeq == Seq((3, 0.9), (1, 0.5), (2, 0.5)))
    assert(m.rank(0, 2) == 3 && m.rank(0, 7) == 0 && m.rank(5, 2) == 0)
  }

  test("blocks from several tasks assemble into one CSR") {
    val m = SimMatrix.fromBlocks(spark, 3, 4, Seq(
      SimMatrix.Block(Array(2, 0), Array(1, 3), Array(0.4, 0.2)),
      SimMatrix.Block(Array(0, 2), Array(1, 0), Array(0.6, 0.4))))
    assert(m.row(0).toSeq == Seq((1, 0.6), (3, 0.2)))
    assert(m.row(1).isEmpty)
    assert(m.row(2).toSeq == Seq((0, 0.4), (1, 0.4)))
    assert(m.rowPtr.toSeq == Seq(0, 2, 2, 4))
  }

  test("empty matrix plus empty is empty") {
    assert(SimMatrix.empty(spark).plus(SimMatrix.empty(spark)).nnz == 0)
  }

  test("a negative id is rejected") {
    intercept[IllegalArgumentException](SimMatrix.fromLocal(spark, Seq((-1L, 0L, 0.5)), 16, 16))
    intercept[IllegalArgumentException](SimMatrix.fromLocal(spark, Seq((0L, -2L, 0.5)), 2, 2))
    intercept[IllegalArgumentException](
      SimMatrix.fromBlocks(spark, 2, 2, Seq(SimMatrix.Block(Array(0), Array(-1), Array(0.5)))))
  }

  test("an id outside the declared shape is rejected") {
    intercept[IllegalArgumentException](SimMatrix.fromLocal(spark, Seq((2L, 0L, 0.5)), 2, 2))
    intercept[IllegalArgumentException](SimMatrix.fromLocal(spark, Seq((0L, 2L, 0.5)), 2, 2))
    intercept[IllegalArgumentException](SimMatrix.fromLocal(spark, Seq((1L << 31, 0L, 0.5)), 16, 16))
    intercept[IllegalArgumentException](SimMatrix.fromLocal(spark, Seq((0L, 1L << 32, 0.5)), 16, 16))
    intercept[IllegalArgumentException](
      SimMatrix.fromBlocks(spark, 2, 2, Seq(SimMatrix.Block(Array(5), Array(0), Array(0.5)))))
  }

  test("a cell stored twice is rejected") {
    intercept[IllegalArgumentException](SimMatrix.fromLocal(spark, Seq((0L, 1L, 0.5), (0L, 1L, 0.3)), 16, 16))
    intercept[IllegalArgumentException](SimMatrix.fromBlocks(spark, 2, 2, Seq(
      SimMatrix.Block(Array(1), Array(1), Array(0.5)),
      SimMatrix.Block(Array(1), Array(1), Array(0.5)))))
  }

  test("property: plus equals the former append-then-sort rows, raw bits") {
    val shape = Gen.zip(Gen.choose(0, 8), Gen.oneOf(Gen.choose(0, 12), Gen.choose(40, 80)))
    checkProp(Prop.forAll(shape, shape, Gen.oneOf(1.0, 0.05), Gen.long) { case ((r1, c1), (r2, c2), w, seed) =>
      val a = TestMatrices.gen(spark, r1, c1, seed)
      val b = TestMatrices.gen(spark, r2, c2, ~seed)
      TestMatrices.sameBits(a.plus(b, w), ReferenceKernels.plus(a, b, w))
    }, minSuccessful = 300)
  }

  test("plus merges long interleaved rows, shared cells and ties in rank order") {
    val a = SimMatrix.fromLocal(spark, (0 until 50).map(t => (0L, 2L * t, 1.0 - t / 50.0)) :+ ((1L, 3L, -0.0)), 2, 100)
    val b = SimMatrix.fromLocal(spark,
      (0 until 50).map(t => (0L, 2L * t + 1, 20.0 - t / 2.5)) ++ Seq((0L, 0L, 0.0), (0L, 4L, 2.0), (2L, 7L, 0.0)), 3, 101)
    for (w <- Seq(1.0, 0.05)) {
      val m = a.plus(b, w)
      assert(TestMatrices.sameBits(m, ReferenceKernels.plus(a, b, w)))
      assert(m.nnz == 102 && m.numRows == 3 && m.numCols == 101)
      assert(m.row(1).toSeq == Seq((3, -0.0)) && m.row(2).toSeq == Seq((7, 0.0)))
    }
  }
}
