package repro.name

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropHelper, ReferenceKernels}
import repro.embed.PseudoBert

/** Unit + property tests for the datasketch substitute. */
class MinHashLshSpec extends AnyFunSuite with PropHelper {

  private val lsh = MinHashLsh

  test("shingles of short and normal strings") {
    assert(lsh.shingles("ab").size == 1)
    assert(lsh.shingles("abcd").size == 2) // abc, bcd
    assert(lsh.shingles("aaaa").size == 1) // identical shingles collapse
  }

  test("identical strings have identical signatures and estJaccard 1") {
    val a = lsh.signature("bonjour le monde")
    val b = lsh.signature("bonjour le monde")
    assert(a.toSeq == b.toSeq)
    assert(lsh.estJaccard(a, b) == 1.0)
  }

  test("disjoint strings have near-zero estimated jaccard") {
    val a = lsh.signature("aaaaaaaaaa")
    val b = lsh.signature("zzzzzzzzzz")
    assert(lsh.estJaccard(a, b) < 0.1)
  }

  test("estimate tracks true jaccard within MinHash error") {
    val pairs = Seq(
      ("kamoti velsu dorne", "kamoti velsu dorn"),
      ("kamoti velsu dorne", "kamoti welsu dorne"),
      ("abcdefghij", "abcdefghzz"),
      ("entity number one", "entity number two"))
    pairs.foreach { case (x, y) =>
      val est = lsh.estJaccard(lsh.signature(x), lsh.signature(y))
      val tru = lsh.trueJaccard(x, y)
      assert(math.abs(est - tru) < 0.2, s"($x,$y): est=$est true=$tru")
    }
  }

  test("property: estimate within 0.25 of truth for random-ish strings") {
    val genWord = Gen.listOfN(12, Gen.alphaLowerChar).map(_.mkString)
    checkProp(Prop.forAll(genWord, genWord) { (a, b) =>
      val ab = a + b.take(6) // overlapping pair
      val est = lsh.estJaccard(lsh.signature(a), lsh.signature(ab))
      math.abs(est - lsh.trueJaccard(a, ab)) < 0.25
    }, minSuccessful = 25)
  }

  test("band keys collide for identical strings") {
    val a = lsh.bandKeys(lsh.signature("hello world"))
    val b = lsh.bandKeys(lsh.signature("hello world"))
    assert(a.toSeq == b.toSeq)
    assert(a.length == MinHashLsh.Bands)
  }

  test("similar strings share at least one band (LSH recall at J>=0.5)") {
    // J(kamoti velsu, kamoti velsu!) ~ high
    var hits = 0
    val cases = Seq(
      ("kamoti velsu dorne", "kamoti velsu dorn"),
      ("bonjour tout le monde", "bonjour tout le mond"),
      ("warden of the north", "warden of the nort"),
      ("abcdefghijklmnop", "abcdefghijklmnoq"))
    cases.foreach { case (x, y) =>
      val shared = lsh.bandKeys(lsh.signature(x)).toSet
        .intersect(lsh.bandKeys(lsh.signature(y)).toSet)
      if (shared.nonEmpty) hits += 1
    }
    assert(hits >= 3, s"only $hits/4 high-jaccard pairs collided in LSH")
  }

  test("dissimilar strings rarely share a band") {
    val r = new scala.util.Random(11)
    def word() = (0 until 15).map(_ => ('a' + r.nextInt(26)).toChar).mkString
    var collisions = 0
    (0 until 50).foreach { _ =>
      val a = lsh.bandKeys(lsh.signature(word())).toSet
      val b = lsh.bandKeys(lsh.signature(word())).toSet
      if (a.intersect(b).nonEmpty) collisions += 1
    }
    assert(collisions <= 3, s"$collisions/50 random pairs collided")
  }

  test("trueJaccard basics") {
    assert(lsh.trueJaccard("abc", "abc") == 1.0)
    assert(lsh.trueJaccard("abc", "xyz") == 0.0)
  }

  test("property: signature equals the former remainder-based signature, raw bits") {
    val char = Gen.frequency(
      8 -> Gen.alphaLowerChar, 2 -> Gen.alphaUpperChar, 1 -> Gen.numChar,
      2 -> Gen.oneOf(' ', '\t', '\n', '\r', '\u000b', '\f'),
      1 -> Gen.oneOf('é', 'è', 'ü', 'ß', 'ç', 'É', 'Ü', 'ø', 'İ', 'ı', '-', '\''))
    val name = Gen.frequency(
      1 -> Gen.const(""),
      2 -> Gen.choose(1, 2).flatMap(Gen.listOfN(_, char)).map(_.mkString),
      6 -> Gen.choose(3, 30).flatMap(Gen.listOfN(_, char)).map(_.mkString),
      2 -> Gen.zip(Gen.choose(0, 4), Gen.listOf(Gen.alphaStr), Gen.choose(0, 4))
        .map { case (l, ws, t) => " " * l + ws.mkString(" \t\n  ") + "\t" * t },
      1 -> Gen.choose(100, 400).flatMap(Gen.listOfN(_, char)).map(_.mkString))
    checkProp(Prop.forAll(name) { s =>
      lsh.signature(s).sameElements(ReferenceKernels.signature(s)) && lsh.shingles(s) == ReferenceKernels.shingles(s)
    }, minSuccessful = 400)
  }

  test("signature and tokenize do not depend on the default locale") {
    val bert = new PseudoBert(Map.empty)
    val before = java.util.Locale.getDefault
    try {
      java.util.Locale.setDefault(new java.util.Locale("tr"))
      assert("I".toLowerCase == "ı") // the dotless i this guards against
      assert(lsh.signature("IVAN").sameElements(lsh.signature("ivan")))
      assert(bert.tokenize("IVAN Ivanov").sameElements(bert.tokenize("ivan ivanov")))
    } finally java.util.Locale.setDefault(before)
  }
}
