package repro.name

import repro.{Oracle, SparkSpec}
import repro.embed.{PseudoBert, VecOps}
import org.apache.spark.sql.functions._

/** Unit tests for the exact semantic top-k (Faiss substitute). */
class SensSpec extends SparkSpec {

  private def vecs(n: Int, dim: Int, salt: Long): Array[Array[Float]] =
    Array.tabulate(n)(i => VecOps.normalize(VecOps.hashGaussian(salt + i, dim)))

  test("top-k matches brute force exactly") {
    val src = vecs(40, 16, 100)
    val tgt = vecs(60, 16, 900)
    val got = Sens.similarity(spark, src, tgt, k = 5, segments = 3)
    src.indices.foreach { i =>
      val brute = tgt.indices
        .map(j => (j, VecOps.manhattanSim(src(i), tgt(j))))
        .sortBy { case (j, s) => (-s, j) }.take(5)
      assert(got.row(i).toSeq == brute, s"row $i differs")
    }
  }

  test("segment count does not change the result") {
    val src = vecs(25, 8, 7)
    val tgt = vecs(33, 8, 77)
    val a = Sens.similarity(spark, src, tgt, k = 4, segments = 1)
    val b = Sens.similarity(spark, src, tgt, k = 4, segments = 5)
    assert(src.indices.map(a.row(_).toSeq) == src.indices.map(b.row(_).toSeq))
  }

  test("k larger than target count returns all targets") {
    val src = vecs(5, 8, 1)
    val tgt = vecs(3, 8, 2)
    val m = Sens.similarity(spark, src, tgt, k = 10)
    assert(src.indices.forall(m.row(_).length == 3))
  }

  test("nnz is exactly k per source row") {
    val m = Sens.similarity(spark, vecs(20, 8, 3), vecs(50, 8, 4), k = 7)
    assert(m.nnz == 20 * 7)
  }

  test("identical vector ranks first with similarity 1") {
    val src = vecs(10, 8, 5)
    val tgt = src.map(_.clone) // identical
    val m = Sens.similarity(spark, src, tgt, k = 3)
    (0 until 10).foreach { i =>
      val (bestT, bestS) = m.row(i).head
      assert(bestT == i && math.abs(bestS - 1.0) < 1e-6)
    }
  }

  test("per-row maximum agrees with DuckDB oracle") {
    val m = Sens.similarity(spark, vecs(15, 8, 9), vecs(20, 8, 10), k = 4)
    val rowMax = m.df.groupBy("src").agg(max("score").as("best"))
      .select(col("src").cast("string").as("src"),
              format_number(col("best"), 6).as("best"))
    Oracle.assertEquivalent(
      rowMax,
      """SELECT src, printf('%.6f', MAX(CAST(score AS DOUBLE))) AS best
        |FROM sim GROUP BY src""".stripMargin,
      "sim" -> m.df)
  }

  test("k = 0 keeps no cell and k < 0 is rejected") {
    val v = vecs(6, 8, 11)
    val m = Sens.similarity(spark, v, v, 0)
    assert(m.nnz == 0 && m.numRows == 6 && m.numCols == 6)
    intercept[IllegalArgumentException](Sens.similarity(spark, v, v, -1))
  }

  test("aligned names rank high through pseudo-BERT + SENS") {
    val ds = repro.kg.KGGen.generate(spark, repro.exp.Datasets.tiny())
    val bert = new PseudoBert(ds.lexicon, 32)
    val m = Sens.similarity(spark,
      bert.embedAll(ds.source.namesArray), bert.embedAll(ds.target.namesArray), k = 10)
    val hits = ds.truthPairs.count { case (s, t) => m.row(s.toInt).headOption.exists(_._1 == t) }
    info(s"SENS-only H@1 on tiny: ${hits / 300.0}")
    assert(hits > 200, s"SENS should align most clean names, got $hits/300")
  }
}
