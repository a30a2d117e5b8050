package repro.eval

import repro.{Oracle, SparkSpec}
import repro.sim.SimMatrix
import org.apache.spark.sql.functions._

/** Unit tests for Hits@N / MRR, hand-computed and oracle-checked. */
class MetricsSpec extends SparkSpec {
  import spark.implicits._

  // src 0: true tgt 0 at rank 1; src 1: true tgt 1 at rank 2;
  // src 2: true tgt 2 missing from its row.
  private lazy val sim = SimMatrix.fromLocal(spark, Seq(
    (0L, 0L, 0.9), (0L, 5L, 0.5),
    (1L, 9L, 0.8), (1L, 1L, 0.7), (1L, 3L, 0.1),
    (2L, 7L, 0.6)), 16, 16)
  private lazy val test3 = Seq((0L, 0L), (1L, 1L), (2L, 2L)).toDF("src", "tgt")

  test("hand-computed H@1/H@5/MRR") {
    val s = Metrics.evaluate(sim, test3)
    assert(s.n == 3)
    assert(math.abs(s.hits1 - 1.0 / 3) < 1e-12)
    assert(math.abs(s.hits5 - 2.0 / 3) < 1e-12)
    assert(math.abs(s.mrr - (1.0 + 0.5) / 3) < 1e-12)
  }

  test("evaluate on test pairs matches evaluate on the test DataFrame") {
    val fromDf = Metrics.evaluate(sim, test3)
    val fromPairs = Metrics.evaluate(sim, Array((2L, 2L), (1L, 1L), (0L, 0L)))
    assert(fromDf == fromPairs)
  }

  test("rank computation agrees with DuckDB window ranking") {
    // compute per-test-pair rank in SQL and via our metrics (through MRR)
    val ranks = Seq((0L, 1L), (1L, 2L)).toDF("src", "rank")
      .select(col("src").cast("string").as("src"), col("rank").cast("string").as("rank"))
    Oracle.assertEquivalent(
      ranks,
      """WITH ranked AS (
        |  SELECT src, tgt, ROW_NUMBER() OVER (PARTITION BY src
        |    ORDER BY CAST(score AS DOUBLE) DESC, CAST(tgt AS BIGINT) ASC) AS rank
        |  FROM sim)
        |SELECT r.src AS src, CAST(r.rank AS VARCHAR) AS rank
        |FROM ranked r JOIN test t ON r.src = t.src AND r.tgt = t.tgt""".stripMargin,
      "sim" -> sim.df, "test" -> test3)
  }

  test("missing true target contributes zero everywhere") {
    val s = Metrics.evaluate(sim, Seq((2L, 2L)).toDF("src", "tgt"))
    assert(s.hits1 == 0 && s.hits5 == 0 && s.mrr == 0 && s.n == 1)
  }

  test("empty test set") {
    val s = Metrics.evaluate(sim, spark.emptyDataset[(Long, Long)].toDF("src", "tgt"))
    assert(s == EaScores(0, 0, 0, 0))
  }

  test("perfect matrix scores 1.0 across the board") {
    val perfect = SimMatrix.fromLocal(spark, (0L until 10L).map(i => (i, i, 1.0)), 16, 16)
    val t = (0L until 10L).map(i => (i, i)).toDF("src", "tgt")
    val s = Metrics.evaluate(perfect, t)
    assert(s.hits1 == 1.0 && s.hits5 == 1.0 && s.mrr == 1.0)
  }

  test("ties break by target id (deterministic)") {
    val tied = SimMatrix.fromLocal(spark, Seq((0L, 1L, 0.5), (0L, 2L, 0.5)), 16, 16)
    // true target 2 ranks behind tied target 1
    val s = Metrics.evaluate(tied, Seq((0L, 2L)).toDF("src", "tgt"))
    assert(s.hits1 == 0.0 && math.abs(s.mrr - 0.5) < 1e-12)
  }

  test("hits5 counts rank exactly 5") {
    val row = (1L to 5L).map(t => (0L, t, 1.0 - t * 0.1))
    val m = SimMatrix.fromLocal(spark, row, 16, 16)
    val s = Metrics.evaluate(m, Seq((0L, 5L)).toDF("src", "tgt"))
    assert(s.hits5 == 1.0 && s.hits1 == 0.0)
  }

  test("evaluate on an empty matrix or empty test pairs") {
    val empty = SimMatrix.empty(spark)
    assert(Metrics.evaluate(empty, Array.empty[(Long, Long)]) == EaScores(0, 0, 0, 0))
    assert(Metrics.evaluate(empty, Array((1L, 1L))) == EaScores(0, 0, 0, 1))
  }

  test("pretty formatting") {
    val s = EaScores(0.5, 0.75, 0.6123, 100)
    assert(s.pretty.contains("H@1=50.0"))
    assert(s.pretty.contains("MRR=0.61"))
  }
}
