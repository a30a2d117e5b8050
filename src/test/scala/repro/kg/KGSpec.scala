package repro.kg

import org.apache.spark.sql.functions._
import org.scalacheck.Prop
import repro.{Oracle, PropHelper, ReferenceKernels, SparkSpec, TestGraphs}

/** Unit tests for the KG and EaDataset arrays, their input checks and
  * their DataFrame views, oracle-checked.
  */
class KGSpec extends SparkSpec with PropHelper {

  private lazy val kg = KG.fromLocal(
    spark, "en",
    names = Array("a", "b", "c", "d"),
    triples = TestGraphs.flat(Seq((0, 0, 1), (1, 1, 2), (2, 0, 3), (0, 1, 1), (3, 0, 3))))
  private lazy val other = KG.fromLocal(spark, "fr", Array("w", "x", "y", "z", "v"), TestGraphs.flat(Seq((0, 0, 4))))

  /** The undirected edges as (u, v) pairs. */
  private def edgePairs(g: KG): Seq[(Int, Int)] = {
    val (us, vs) = g.undirectedEdges
    us.toSeq.zip(vs)
  }

  private def dataset(truth: Seq[(Long, Long)], train: Seq[(Long, Long)], test: Seq[(Long, Long)]) =
    EaDataset.fromLocal("ds", kg, other, truth, train, test, Map.empty)
  private val truth = Seq((0L, 2L), (1L, 0L), (2L, 4L), (3L, 1L))
  private lazy val ds = dataset(truth, Seq((2L, 4L), (0L, 2L)), Seq((3L, 1L), (1L, 0L)))

  test("numEntities / numRelations / numTriples") {
    assert(kg.numEntities == 4)
    assert(kg.numRelations == 2)
    assert(kg.numTriples == 5)
  }

  test("triple count agrees with DuckDB oracle") {
    Oracle.assertEquivalent(
      kg.triples.groupBy("r").agg(count(lit(1)).as("n"))
        .select(col("r").cast("string").as("r"), col("n").cast("string").as("n")),
      "SELECT r, CAST(COUNT(*) AS VARCHAR) AS n FROM triples GROUP BY r",
      "triples" -> kg.triples)
  }

  test("namesArray is id-indexed") {
    assert(kg.namesArray.toSeq == Seq("a", "b", "c", "d"))
  }

  test("undirectedEdges collapses parallel and reverse edges, drops self-loops") {
    // (0,1) appears twice (two relations) -> once; (3,3) self-loop dropped;
    // the result is in ascending order, whatever the triple order
    assert(edgePairs(kg) == Seq((0, 1), (1, 2), (2, 3)))
  }

  test("undirectedEdges via DuckDB oracle") {
    import spark.implicits._
    Oracle.assertEquivalent(
      edgePairs(kg).toDF("u", "v").select(
        col("u").cast("string").as("u"), col("v").cast("string").as("v")),
      """SELECT DISTINCT CAST(LEAST(CAST(h AS BIGINT), CAST(t AS BIGINT)) AS VARCHAR) AS u,
        |                CAST(GREATEST(CAST(h AS BIGINT), CAST(t AS BIGINT)) AS VARCHAR) AS v
        |FROM triples WHERE h <> t""".stripMargin,
      "triples" -> kg.triples)
  }

  test("property: undirectedEdges equals the former boxed distinct-and-sort pass") {
    checkProp(Prop.forAll(TestGraphs.gen) { case (n, triples) =>
      val g = KG.fromLocal(spark, "en", Array.tabulate(n)(_.toString), TestGraphs.flat(triples))
      edgePairs(g) == ReferenceKernels.undirectedEdges(triples).toSeq
    }, minSuccessful = 300)
  }

  test("degree distribution via DuckDB oracle") {
    val sparkDeg = kg.triples.select(col("h").as("e"))
      .unionByName(kg.triples.select(col("t").as("e")))
      .groupBy("e").agg(count(lit(1)).as("deg"))
      .select(col("e").cast("string").as("e"), col("deg").cast("string").as("deg"))
    Oracle.assertEquivalent(
      sparkDeg,
      """SELECT e, CAST(COUNT(*) AS VARCHAR) AS deg FROM (
        |  SELECT h AS e FROM triples UNION ALL SELECT t AS e FROM triples
        |) GROUP BY e""".stripMargin,
      "triples" -> kg.triples)
  }

  test("fromLocal round-trips entities") {
    val rows = kg.entities.orderBy("id").collect()
    assert(rows.map(_.getLong(0)).toSeq == Seq(0L, 1L, 2L, 3L))
    assert(rows.map(_.getString(1)).toSeq == Seq("a", "b", "c", "d"))
  }

  test("views round-trip triples and truth/train/test pairs, which are sorted") {
    assert(kg.triples.collect().flatMap(r => Seq(r.getLong(0).toInt, r.getInt(1), r.getLong(2).toInt)).toSeq ==
      kg.triplesArray.toSeq)
    def pairs(df: org.apache.spark.sql.DataFrame) = df.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    assert(pairs(ds.truth) == truth.sorted && ds.truthPairs.toSeq == truth.sorted)
    assert(pairs(ds.train) == Seq((0L, 2L), (2L, 4L)) && ds.trainPairs.toSeq == pairs(ds.train))
    assert(pairs(ds.test) == Seq((1L, 0L), (3L, 1L)) && ds.testPairs.toSeq == pairs(ds.test))
  }

  test("reversed swaps the sides, and reversed twice gives the original pairs back") {
    val rev = ds.reversed
    assert(rev.source eq other)
    assert(rev.truthPairs.toSeq == truth.map(_.swap).sorted)
    val back = rev.reversed
    assert(back.truthPairs.toSeq == ds.truthPairs.toSeq)
    assert(back.trainPairs.toSeq == ds.trainPairs.toSeq)
    assert(back.testPairs.toSeq == ds.testPairs.toSeq)
  }

  private def rejected(why: String)(build: => Any): Unit = {
    val e = intercept[IllegalArgumentException](build)
    assert(e.getMessage.contains(why), e.getMessage)
  }

  test("a triple endpoint outside the entities is rejected") {
    val names = Array("a", "b", "c", "d")
    for (bad <- Seq((0, 0, 4), (-1, 0, 1)))
      rejected("outside [0, 4)")(KG.fromLocal(spark, "en", names, TestGraphs.flat(Seq(bad))))
    // the flat format's own checks: whole triples, and relation ids that can index a count
    for (bad <- Seq(Array(0, 0), Array(0, 0, 1, 2)))
      rejected("not a multiple of 3")(KG.fromLocal(spark, "en", names, bad))
    rejected("triple (1, -1, 2) of KG en has a negative relation id")(
      KG.fromLocal(spark, "en", names, TestGraphs.flat(Seq((0, 0, 1), (1, -1, 2)))))
  }

  test("an entity without a name is rejected") {
    rejected("entity 1 of KG en has no name")(KG.fromLocal(spark, "en", Array("a", null, "c"), Array.empty))
  }

  test("a ground truth that is not 1-to-1 is rejected") {
    rejected("1-to-1")(dataset(truth :+ ((0L, 3L)), truth, Seq((0L, 3L))))
    rejected("1-to-1")(dataset(truth.take(3) :+ ((3L, 2L)), truth.take(3), Seq((3L, 2L))))
  }

  test("train and test sharing a pair is rejected") {
    rejected("share a pair")(dataset(truth, truth.take(3), truth.drop(2)))
  }

  test("train and test not covering the ground truth is rejected") {
    rejected("train ∪ test")(dataset(truth, truth.take(1), truth.drop(2)))
    rejected("train ∪ test")(dataset(truth.take(3), truth.take(1), truth.drop(1)))
  }

  test("a pair id outside its KG is rejected") {
    for (bad <- Seq((3L, 5L), (-1L, 3L))) {
      val pairs = truth.take(3) :+ bad
      rejected("outside the 4 x 5 entities")(dataset(pairs, pairs.take(1), pairs.drop(1)))
    }
  }
}
