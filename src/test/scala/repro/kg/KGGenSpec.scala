package repro.kg

import repro.{Oracle, SparkSpec}
import repro.exp.Datasets
import org.apache.spark.sql.functions._

/** Unit tests for the synthetic benchmark generator. */
class KGGenSpec extends SparkSpec {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())
  private lazy val unk = KGGen.generate(spark, Datasets.tinyWithUnknowns())

  test("entity counts match config (no unknowns)") {
    assert(ds.source.numEntities == 300)
    assert(ds.target.numEntities == 300)
  }

  test("entity counts include injected unknown entities") {
    assert(unk.source.numEntities == 250 + 120)
    assert(unk.target.numEntities == 250 + 60)
  }

  test("ground truth covers exactly the core and is 1-to-1") {
    val pairs = ds.truthPairs
    assert(pairs.length == 300)
    assert(pairs.map(_._1).distinct.length == pairs.length, "src side not unique")
    assert(pairs.map(_._2).distinct.length == pairs.length, "tgt side not unique")
  }

  test("train/test split is 20/80 and disjoint") {
    val train = ds.trainPairs.toSet
    val test = ds.testPairs.toSet
    assert(train.size == 60)
    assert(test.size == 240)
    assert(train.intersect(test).isEmpty)
    assert((train ++ test) == ds.truthPairs.toSet)
  }

  test("truth = train union test via DuckDB oracle") {
    val unioned = ds.train.unionByName(ds.test)
      .select(col("src").cast("string").as("src"), col("tgt").cast("string").as("tgt"))
    Oracle.assertEquivalent(
      unioned,
      "SELECT src, tgt FROM truth",
      "truth" -> ds.truth)
  }

  test("triple endpoints are valid entity ids") {
    val nS = ds.source.numEntities
    val bad = ds.source.triples
      .where(col("h") < 0 || col("h") >= nS || col("t") < 0 || col("t") >= nS).count()
    assert(bad == 0)
    val nT = ds.target.numEntities
    val badT = ds.target.triples
      .where(col("h") < 0 || col("h") >= nT || col("t") < 0 || col("t") >= nT).count()
    assert(badT == 0)
  }

  test("generation is deterministic in the config") {
    val a = KGGen.generate(spark, Datasets.tiny())
    val b = KGGen.generate(spark, Datasets.tiny())
    assert(a.source.namesArray.toSeq == b.source.namesArray.toSeq)
    assert(a.target.namesArray.toSeq == b.target.namesArray.toSeq)
    assert(a.truthPairs.toSeq == b.truthPairs.toSeq)
    assert(a.source.triples.collect().toSeq == b.source.triples.collect().toSeq)
  }

  test("different seeds give different structure") {
    val a = KGGen.generate(spark, Datasets.tiny(seed = 1))
    val b = KGGen.generate(spark, Datasets.tiny(seed = 2))
    assert(a.source.triples.collect().toSet != b.source.triples.collect().toSet)
  }

  test("source and target structures are heterogeneous (not identical)") {
    // map target triples back through truth and compare edge sets
    val perm = ds.truthPairs.toMap // src -> tgt
    val srcEdges = ds.source.triples.collect()
      .map(r => (r.getLong(0), r.getLong(2))).toSet
    val mapped = srcEdges.map { case (a, b) => (perm(a), perm(b)) }
    val tgtEdges = ds.target.triples.collect()
      .map(r => (r.getLong(0), r.getLong(2))).toSet
    assert(mapped != tgtEdges, "per-side subsampling should differ")
    assert(mapped.intersect(tgtEdges).nonEmpty, "but they must share structure")
  }

  test("every entity has a non-empty name") {
    assert(ds.source.namesArray.forall(_.nonEmpty))
    assert(ds.target.namesArray.forall(_.nonEmpty))
  }

  test("relation vocabularies differ per side and respect bounds") {
    val rS = ds.source.triples.select("r").collect().map(_.getInt(0))
    val rT = ds.target.triples.select("r").collect().map(_.getInt(0))
    assert(rS.forall(r => r >= 0 && r < 10))
    assert(rT.forall(r => r >= 0 && r < 8))
  }

  test("unknown entities have >= 5 neighbours (paper's injection rule)") {
    val deg = scala.collection.mutable.Map[Long, Int]().withDefaultValue(0)
    unk.source.triples.collect().foreach { r =>
      deg(r.getLong(0)) += 1; deg(r.getLong(2)) += 1
    }
    val extras = (250L until 370L)
    assert(extras.forall(e => deg(e) >= 5), "every injected unknown entity needs >=5 edges")
  }

  test("pseudo-translation is deterministic and changes the surface") {
    assert(KGGen.translate("kamoti", "fr") == KGGen.translate("kamoti", "fr"))
    assert(KGGen.translate("kamoti", "fr") != "kamoti")
    assert(KGGen.translate("sufalo", "de") != "sufalo")
  }

  test("translated names retain character overlap with source names") {
    val lsh = repro.name.MinHashLsh
    val truthMap = ds.truthPairs.toMap
    val src = ds.source.namesArray
    val tgt = ds.target.namesArray
    val jaccards = (0 until 300 by 7).map { i =>
      lsh.trueJaccard(src(i), tgt(truthMap(i.toLong).toInt))
    }
    // most aligned pairs should keep noticeable 3-gram overlap
    assert(jaccards.count(_ > 0.2) > jaccards.length / 2)
  }

  test("lexicon maps translated surfaces back to canonical tokens") {
    assert(ds.lexicon.nonEmpty)
    ds.lexicon.foreach { case (foreign, canon) =>
      assert(KGGen.translate(canon, "fr").toLowerCase == foreign)
    }
  }

  test("lexicon keys are lowercase even for capitalized German surfaces") {
    val de = KGGen.generate(spark, Datasets.tiny(langTgt = "de"))
    assert(de.lexicon.keys.forall(k => k == k.toLowerCase))
    // and a German entity name's tokens resolve through the lexicon
    val bert = new repro.embed.PseudoBert(de.lexicon)
    val sample = de.target.namesArray.take(50)
    val resolved = sample.flatMap(bert.tokenize).count(t => de.lexicon.contains(t))
    assert(resolved > 30, s"most clean German tokens should be in the lexicon, got $resolved")
  }

  test("reversed dataset swaps sides consistently") {
    val rev = ds.reversed
    assert(rev.source.lang == ds.target.lang)
    assert(rev.truthPairs.toSet == ds.truthPairs.map { case (s, t) => (t, s) }.toSet)
    assert(rev.trainPairs.toSet == ds.trainPairs.map { case (s, t) => (t, s) }.toSet)
  }

  test("preferential attachment produces connected-ish skewed graphs") {
    val edges = KGGen.preferentialAttachment(200, 600, new scala.util.Random(5))
    assert(edges.length >= 600)
    val deg = new Array[Int](200)
    edges.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    assert(deg.max > 4 * (deg.sum / 200), "hub degrees should exceed the mean by far")
    assert(edges.forall { case (u, v) => u < v && v < 200 })
  }

  test("typo changes a token by at most a small edit") {
    val r = new scala.util.Random(3)
    (0 until 50).foreach { _ =>
      val t = KGGen.syntheticWord(r, 2)
      val d = repro.name.Stns.levenshtein(t, KGGen.typo(t, r))
      assert(d >= 0 && d <= 1, s"typo must be a single edit, got $d")
    }
  }
}
