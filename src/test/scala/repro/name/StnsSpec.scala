package repro.name

import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropHelper, ReferenceKernels, SparkSpec, TestMatrices}
import org.apache.spark.sql.functions._

/** Unit tests for STNS: Levenshtein (DuckDB-oracled) + LSH-filtered matrix. */
class StnsSpec extends SparkSpec with PropHelper {

  test("levenshtein on known cases") {
    assert(Stns.levenshtein("kitten", "sitting") == 3)
    assert(Stns.levenshtein("", "abc") == 3)
    assert(Stns.levenshtein("abc", "") == 3)
    assert(Stns.levenshtein("abc", "abc") == 0)
    assert(Stns.levenshtein("flaw", "lawn") == 2)
  }

  test("levenshtein agrees with DuckDB's levenshtein() on word pairs") {
    import spark.implicits._
    // ASCII only: DuckDB's levenshtein counts UTF-8 *bytes*, ours counts
    // characters ('é' = 2 bytes ⇒ off-by-one there); our char-level
    // semantics matches python-Levenshtein, which the paper uses.
    val pairs = Seq(
      ("kamoti", "quamote"), ("velsu dorne", "velsue dorn"), ("a", "b"),
      ("bonjour", "bonsoir"), ("same", "same"), ("", "x"), ("rankalo", "ranqualo"))
    val df = pairs.toDF("a", "b")
    val got = df.select(col("a"), col("b"),
      udf((x: String, y: String) => Stns.levenshtein(x, y)).apply(col("a"), col("b"))
        .cast("string").as("d"))
    Oracle.assertEquivalent(
      got,
      "SELECT a, b, CAST(levenshtein(a, b) AS VARCHAR) AS d FROM pairs",
      "pairs" -> df)
  }

  test("property: levenshtein symmetry and identity") {
    val word = Gen.listOfN(8, Gen.alphaLowerChar).map(_.mkString)
    checkProp(Prop.forAll(word, word) { (a, b) =>
      Stns.levenshtein(a, b) == Stns.levenshtein(b, a) && Stns.levenshtein(a, a) == 0
    })
  }

  test("property: levenshtein bounded by max length, >= length difference") {
    val word = Gen.listOfN(10, Gen.oneOf('a', 'b', 'c')).map(_.mkString)
    checkProp(Prop.forAll(word, word) { (a, b) =>
      val d = Stns.levenshtein(a, b)
      d <= math.max(a.length, b.length) && d >= math.abs(a.length - b.length)
    })
  }

  test("levenshteinSim normalization") {
    assert(Stns.levenshteinSim("abc", "abc") == 1.0)
    assert(Stns.levenshteinSim("", "") == 1.0)
    assert(Stns.levenshteinSim("abcd", "abce") == 0.75)
  }

  test("similarity matrix contains exact-name matches at score 1") {
    val src = Array("kamoti velsu", "dorne hel", "warden north")
    val tgt = Array("warden north", "kamoti velsu", "unrelated zzz")
    val m = Stns.similarity(spark, src, tgt, theta = 0.5)
    assert(m.row(0).exists { case (t, s) => t == 1 && s == 1.0 })
    assert(m.row(2).exists { case (t, s) => t == 0 && s == 1.0 })
  }

  test("theta filters out dissimilar pairs") {
    val src = Array("aaaaaaaaaa")
    val tgt = Array("zzzzzzzzzz")
    val m = Stns.similarity(spark, src, tgt, theta = 0.5)
    assert(m.nnz == 0)
  }

  test("near-duplicates survive the LSH + theta pipeline") {
    val src = Array("bonjour tout le monde", "kamoti velsu dorne")
    val tgt = Array("bonjour tout le mond", "kamoti velsu dorn")
    val m = Stns.similarity(spark, src, tgt, theta = 0.4)
    assert(m.row(0).exists(_._1 == 0))
    assert(m.row(1).exists(_._1 == 1))
  }

  test("matrix scores equal direct levenshteinSim (oracle re-check)") {
    val src = Array("kamoti velsu", "dorne helan")
    val tgt = Array("kamoti velsue", "dorne helan")
    val m = Stns.similarity(spark, src, tgt, theta = 0.3)
    assert(m.nnz > 0)
    for (s <- src.indices; (t, score) <- m.row(s))
      assert(math.abs(score - Stns.levenshteinSim(src(s), tgt(t))) < 1e-12)
  }

  test("on the tiny dataset STNS finds most aligned pairs at theta=0.3") {
    val ds = repro.kg.KGGen.generate(spark, repro.exp.Datasets.tiny())
    val m = Stns.similarity(spark, ds.source.namesArray, ds.target.namesArray, theta = 0.3)
    val found = ds.truthPairs.count { case (s, t) => m.rank(s, t) > 0 }
    info(s"STNS candidate recall on tiny: ${found / 300.0}")
    assert(found > 150, s"too few aligned pairs survive LSH: $found/300")
  }

  test("property: similarity equals the former LongMap-and-distinct join, raw bits") {
    // few words and shared category phrases: duplicate names and buckets of 50+ targets
    val words = Array("kamoti", "velsu", "dorne", "hel", "warden", "north", "bonjour", "monde", "ab", "x")
    val long = "municipality of the northern valley "
    val phrases = Array("", "saint ", "river of the ", long, long, long)
    def names(n: Int, r: scala.util.Random) = Array.fill(n) {
      phrases(r.nextInt(phrases.length)) + Seq.fill(1 + r.nextInt(3))(words(r.nextInt(words.length))).mkString(" ")
    }
    var largestBucket = 0
    def size(max: Int) = Gen.frequency(1 -> Gen.const(0), 9 -> Gen.choose(1, max)) // 0: an empty side
    checkProp(Prop.forAll(size(150), size(300), Gen.oneOf(0.0, 0.5, 1.0), Gen.long) {
      (nS, nT, theta, seed) =>
        val r = new scala.util.Random(seed)
        val (src, tgt) = (names(nS, r), names(nT, r))
        val buckets = tgt.toSeq.flatMap(t => MinHashLsh.bandKeys(MinHashLsh.signature(t))).groupBy(identity)
        largestBucket = (buckets.values.map(_.size) ++ Seq(largestBucket)).max
        TestMatrices.sameBits(Stns.similarity(spark, src, tgt, theta), ReferenceKernels.stns(spark, src, tgt, theta))
    }, minSuccessful = 120)
    assert(largestBucket >= 50, s"the largest bucket held only $largestBucket targets")
  }
}
