package repro.embed

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelper

/** Unit + property tests for the vector primitives. */
class VecOpsSpec extends AnyFunSuite with PropHelper {

  private val genVec: Gen[Array[Float]] =
    Gen.choose(1, 16).flatMap(n => Gen.listOfN(n, Gen.choose(-5f, 5f)).map(_.toArray))

  test("manhattan on known vectors") {
    assert(VecOps.manhattan(Array(1f, 2f), Array(4f, 0f)) == 5.0)
    assert(VecOps.manhattan(Array(0f), Array(0f)) == 0.0)
  }

  test("manhattanSim is 1 at distance 0 and decreasing") {
    assert(VecOps.manhattanSim(Array(1f), Array(1f)) == 1.0)
    assert(VecOps.manhattanSim(Array(0f), Array(1f)) == 0.5)
    assert(VecOps.manhattanSim(Array(0f), Array(3f)) == 0.25)
  }

  test("property: manhattan is symmetric and non-negative") {
    checkProp(Prop.forAll(genVec) { a =>
      val b = a.map(x => -x)
      VecOps.manhattan(a, b) == VecOps.manhattan(b, a) && VecOps.manhattan(a, b) >= 0
    })
  }

  test("property: triangle inequality holds for manhattan") {
    checkProp(Prop.forAll(Gen.listOfN(8, Gen.choose(-3f, 3f))) { xs =>
      val a = xs.take(4).toArray.padTo(4, 0f)
      val b = xs.drop(4).toArray.padTo(4, 0f)
      val z = Array.fill(4)(0f)
      VecOps.manhattan(a, b) <= VecOps.manhattan(a, z) + VecOps.manhattan(z, b) + 1e-3
    })
  }

  test("normalize produces unit vectors (within eps)") {
    val v = VecOps.normalize(Array(3f, 4f))
    val norm = math.sqrt(v.map(x => x.toDouble * x).sum)
    assert(math.abs(norm - 1.0) < 1e-4)
  }

  test("normalize of zero vector stays finite (eps guard)") {
    val v = VecOps.normalize(Array(0f, 0f, 0f))
    assert(v.forall(x => !x.isNaN && !x.isInfinite))
  }

  test("axpy adds a scaled vector in place") {
    val a = Array(4f, 6f)
    VecOps.axpy(a, 2f, Array(1f, 1f))
    assert(a.toSeq == Seq(6f, 8f))
  }

  test("maxPoolInPlace keeps element-wise maxima") {
    val a = Array(1f, 5f, -2f)
    VecOps.maxPoolInPlace(a, Array(3f, 0f, -1f))
    assert(a.toSeq == Seq(3f, 5f, -1f))
  }

  test("hashGaussian is deterministic and seed-sensitive") {
    val a = VecOps.hashGaussian(42L, 32)
    val b = VecOps.hashGaussian(42L, 32)
    val c = VecOps.hashGaussian(43L, 32)
    assert(a.toSeq == b.toSeq)
    assert(a.toSeq != c.toSeq)
  }

  test("hashGaussian looks standard-normal-ish") {
    val v = (0 until 200).flatMap(i => VecOps.hashGaussian(i.toLong, 16))
    val mean = v.map(_.toDouble).sum / v.length
    val varr = v.map(x => (x - mean) * (x - mean)).sum / v.length
    assert(math.abs(mean) < 0.1, s"mean=$mean")
    assert(math.abs(varr - 1.0) < 0.2, s"var=$varr")
  }

  /** Offers `scores` to a TopK(k), index by index in the order `order`. */
  private def topK(scores: Array[Double], k: Int, order: Seq[Int]): Seq[(Int, Double)] = {
    val top = new TopK(k)
    order.foreach(i => top.offer(scores(i), i))
    val (idx, sc) = top.result()
    idx.toSeq.zip(sc.toSeq)
  }

  private def bits(cells: Seq[(Int, Double)]): Seq[(Int, Long)] =
    cells.map { case (i, v) => (i, java.lang.Double.doubleToRawLongBits(v)) }

  test("topK returns k best sorted desc with deterministic ties") {
    val s = Array(0.1, 0.9, 0.5, 0.9, 0.2)
    val top = topK(s, 3, s.indices)
    assert(top.map(_._1) == Seq(1, 3, 2)) // tie 0.9: lower index first
    assert(top.map(_._2) == Seq(0.9, 0.9, 0.5))
    assert(topK(s, 3, s.indices.reverse) == top) // whatever the offer order
    // a tie with the kept worst offer: the lower index wins, offered first or last
    val u = Array(0.5, 0.9, 0.5, 0.9, 0.5)
    assert(topK(u, 3, u.indices).map(_._1) == Seq(1, 3, 0))
    assert(topK(u, 3, u.indices.reverse).map(_._1) == Seq(1, 3, 0))
  }

  test("topK with k >= n returns all, sorted") {
    assert(topK(Array(0.3, 0.1, 0.7), 10, 0 to 2).map(_._1) == Seq(2, 0, 1))
  }

  test("property: topK(k) equals sort-take-k") {
    val genScores = Gen.listOf(Gen.oneOf(Gen.choose(0.0, 1.0), Gen.oneOf(0.25, 0.5))) // forced ties
    checkProp(Prop.forAll(genScores, Gen.choose(0, 10), Gen.long) { (xs, k, seed) =>
      val arr = xs.toArray
      val expect = arr.zipWithIndex.map { case (v, i) => (i, v) }
        .sortBy { case (i, v) => (-v, i) }.take(k).toSeq
      topK(arr, k, new scala.util.Random(seed).shuffle(arr.indices.toVector)) == expect
    }, minSuccessful = 200)
  }

  test("topK and l1TopK keep nothing at k = 0 and reject k < 0 or ragged targets") {
    assert(topK(Array(0.5, 0.2), 0, 0 to 1).isEmpty)
    assert(VecOps.l1TopK(Array(1f), Array(1f, 2f), 0)._1.isEmpty)
    intercept[IllegalArgumentException](new TopK(-1))
    intercept[IllegalArgumentException](VecOps.l1TopK(Array(1f), Array(1f, 2f), -1))
    intercept[IllegalArgumentException](VecOps.l1TopK(Array(1f, 2f), Array(1f, 2f, 3f), 1))
  }

  /** A row and n targets drawn from a pool of `pool` vectors, so equal
    * targets (and so tied scores) are common. Some n exceed l1TopK's
    * 256-target chunk.
    */
  private val genTargets: Gen[(Array[Float], Array[Array[Float]])] = for {
    dim  <- Gen.choose(1, 9)
    pool <- Gen.choose(1, 6)
    n    <- Gen.frequency(3 -> Gen.choose(0, 23), 1 -> Gen.choose(250, 600))
    vecs <- Gen.listOfN(pool + 1, Gen.listOfN(dim, Gen.choose(-2f, 2f)).map(_.toArray))
    pick <- Gen.listOfN(n, Gen.choose(1, pool))
  } yield (vecs.head, pick.map(vecs(_)).toArray)

  test("property: l1Sims scores have manhattanSim's bits") {
    checkProp(Prop.forAll(genTargets, Gen.choose(0, 600)) { case ((row, tv), f) =>
      val from = f % (tv.length + 1)
      val out = new Array[Double](tv.length - from)
      VecOps.l1Sims(row, VecOps.flatten(tv), from, out)
      out.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
        tv.toSeq.drop(from).map(t => java.lang.Double.doubleToRawLongBits(VecOps.manhattanSim(row, t)))
    }, minSuccessful = 200)
  }

  test("property: l1TopK equals the boxed-heap SENS row loop (indices and score bits)") {
    // n is often not a multiple of 4 and often <= k
    checkProp(Prop.forAll(genTargets, Gen.oneOf(Gen.choose(1, 30), Gen.choose(500, 700)), Gen.choose(1, 5)) { case ((row, tv), k, segments) =>
      val (idx, sc) = VecOps.l1TopK(row, VecOps.flatten(tv), k)
      bits(idx.toSeq.zip(sc.toSeq)) == bits(repro.ReferenceKernels.sensRow(row, tv, k, segments).toSeq)
    }, minSuccessful = 300)
  }
}
