package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.kg.KGGen

/** Unit tests for the deterministic multilingual embedder (BERT stand-in). */
class PseudoBertSpec extends AnyFunSuite {

  private val lex = Map("quamoté" -> "kamoti", "velsue" -> "velsu")
  private val bert = new PseudoBert(lex, dim = 32)

  test("tokenize lowercases and splits on non-alphanumerics") {
    assert(bert.tokenize("Hello, World-42!").toSeq == Seq("hello", "world", "42"))
    assert(bert.tokenize("  ").isEmpty)
  }

  test("tokenize keeps accented characters (pseudo-French)") {
    assert(bert.tokenize("quamoté resto").toSeq == Seq("quamoté", "resto"))
  }

  test("canonical maps lexicon entries and passes others through") {
    assert(bert.canonical("quamoté") == "kamoti")
    assert(bert.canonical("kamoti") == "kamoti")
    assert(bert.canonical("unknowntoken") == "unknowntoken")
  }

  test("translated token embeds identically to its English form") {
    assert(bert.tokenVector("quamoté").toSeq == bert.tokenVector("kamoti").toSeq)
  }

  test("different tokens embed differently") {
    assert(bert.tokenVector("kamoti").toSeq != bert.tokenVector("velsu").toSeq)
  }

  test("embedding is deterministic") {
    assert(bert.embed("kamoti velsu").toSeq == bert.embed("kamoti velsu").toSeq)
  }

  test("embedding is order-invariant (max-pool)") {
    assert(bert.embed("kamoti velsu").toSeq == bert.embed("velsu kamoti").toSeq)
  }

  test("embeddings are unit-norm") {
    val v = bert.embed("kamoti velsu")
    val n = math.sqrt(v.map(x => x.toDouble * x).sum)
    assert(math.abs(n - 1.0) < 1e-4)
  }

  test("translated name is closer to its source than to a random name") {
    val en = bert.embed("kamoti velsu")
    val fr = bert.embed("quamoté velsue")
    val other = bert.embed("randalpha betagamma")
    assert(VecOps.manhattan(en, fr) < VecOps.manhattan(en, other))
  }

  test("typo'd token falls out of the lexicon and embeds differently") {
    val clean = bert.tokenVector("quamoté")
    val typo = bert.tokenVector("quamote")
    assert(clean.toSeq != typo.toSeq)
  }

  test("embedAll is index-aligned and bit-equal to embedding one name at a time") {
    val names = Array.tabulate(5000)(i => s"kamoti t$i quamoté ${i % 37}" + (if (i % 11 == 0) "" else " velsue"))
    val bits = (v: Array[Float]) => v.map(java.lang.Float.floatToRawIntBits).toSeq
    assert(bert.embedAll(names).map(bits).toSeq == names.map(n => bits(bert.embed(n))).toSeq)
    assert(bert.embedAll(Array.empty).isEmpty)
  }

  test("empty name embeds to the zero vector") {
    assert(bert.embed("").forall(_ == 0f))
  }

  test("end-to-end: generator lexicon makes aligned names similar") {
    val ds = KGGen.generate(org.apache.spark.sql.SparkSession.getActiveSession.getOrElse(
      repro.SparkSpec.shared), repro.exp.Datasets.tiny())
    val b = new PseudoBert(ds.lexicon, 32)
    val src = ds.source.namesArray.map(b.embed)
    val tgt = ds.target.namesArray.map(b.embed)
    val truthMap = ds.truthPairs
    // aligned pairs should usually be closer than a fixed mismatched pair
    val good = truthMap.take(100).count { case (s, t) =>
      val aligned = VecOps.manhattan(src(s.toInt), tgt(t.toInt))
      val mismatch = VecOps.manhattan(src(s.toInt), tgt(((t + 7) % 300).toInt))
      aligned < mismatch
    }
    assert(good > 85, s"only $good/100 aligned pairs closer than mismatches")
  }
}
