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
    val targets = L1Targets(Array(Array(1f), Array(2f)), Array(Array(1f)))
    assert(VecOps.l1TopK(Array(1f), targets, 0)._1.isEmpty)
    intercept[IllegalArgumentException](new TopK(-1))
    intercept[IllegalArgumentException](VecOps.l1TopK(Array(1f), targets, -1))
    intercept[IllegalArgumentException](VecOps.l1TopK(Array(1f, 2f), targets, 1))
    intercept[IllegalArgumentException](L1Targets(Array(Array(1f, 2f), Array(3f)), Array.empty))
    intercept[IllegalArgumentException](L1Targets(Array(Array(1f, 2f)), Array(Array(3f))))
  }

  /** A row and n targets drawn from a pool of `pool` vectors, so equal
    * targets (and so tied scores) are common. Some n exceed k.
    */
  private val genTargets: Gen[(Array[Float], Array[Array[Float]])] = for {
    dim  <- Gen.choose(1, 9)
    pool <- Gen.choose(1, 6)
    n    <- Gen.frequency(3 -> Gen.choose(0, 23), 1 -> Gen.choose(250, 600))
    vecs <- Gen.listOfN(pool + 1, Gen.listOfN(dim, Gen.choose(-2f, 2f)).map(_.toArray))
    pick <- Gen.listOfN(n, Gen.choose(1, pool))
  } yield (vecs.head, pick.map(vecs(_)).toArray)

  test("property: L1Targets.sims scores have manhattanSim's bits") {
    checkProp(Prop.forAll(genTargets, Gen.long) { case ((row, tv), seed) =>
      val cand = new scala.util.Random(seed).shuffle(tv.indices.toVector).take(tv.length / 2 + 1)
      val out = new Array[Double](cand.length)
      L1Targets(tv, Array(row)).sims(row, cand.toArray, out)
      out.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
        cand.map(t => java.lang.Double.doubleToRawLongBits(VecOps.manhattanSim(row, tv(t))))
    }, minSuccessful = 200)
  }

  test("property: l1TopK equals the boxed-heap SENS row loop (indices and score bits)") {
    // n is often not a multiple of 4 and often <= k
    checkProp(Prop.forAll(genTargets, Gen.oneOf(Gen.choose(1, 30), Gen.choose(500, 700)), Gen.choose(1, 5)) { case ((row, tv), k, segments) =>
      val (idx, sc) = VecOps.l1TopK(row, L1Targets(tv, Array(row)), k)
      bits(idx.toSeq.zip(sc.toSeq)) == bits(repro.ReferenceKernels.sensRow(row, tv, k, segments).toSeq)
    }, minSuccessful = 300)
  }

  /** Test cases for the filter bound: (row, targets, the rows the targets
    * are quantized for).
    */
  private type BoundCase = (Array[Float], Array[Array[Float]], Array[Array[Float]])

  /** Targets one or two float ulps apart, so the k-th best distance has
    * near-ties the filter must not cut, at dims up to 200 and magnitudes up
    * to 1e6, plus values that force the exact path: ±Inf or NaN in a
    * target, and a row far past the scale (it is not among the rows the
    * targets were quantized for).
    */
  private val genUlps: Gen[BoundCase] = for {
    dim   <- Gen.oneOf(Gen.choose(1, 8), Gen.choose(60, 200))
    mag   <- Gen.oneOf(1e-3f, 1f, 1e3f, 1e6f)
    pool  <- Gen.listOfN(3, Gen.listOfN(dim, Gen.choose(-1f, 1f)).map(_.map(_ * mag).toArray))
    n     <- Gen.choose(1, 60)
    picks <- Gen.listOfN(n, Gen.zip(Gen.choose(0, 2), Gen.choose(0, dim - 1), Gen.choose(-2, 2)))
    odd   <- Gen.oneOf(0, 1, 2, 3, 4) // 0-2: none; 3: a non-finite target; 4: a row past the scale
    bad   <- Gen.oneOf(Float.PositiveInfinity, Float.NegativeInfinity, Float.NaN, 3e38f)
    at    <- Gen.choose(0, n - 1)
  } yield {
    val tv = picks.map { case (p, d, ulps) =>
      val v = pool(p).clone()
      for (_ <- 0 until ulps.abs) v(d) = if (ulps > 0) Math.nextUp(v(d)) else Math.nextDown(v(d))
      v
    }.toArray
    if (odd == 3) tv(at)(at % dim) = bad
    val row = pool(at % 3).map(x => if (odd == 4) x * 1e7f else Math.nextUp(x))
    (row, tv, if (odd == 4) Array.empty else Array(row))
  }

  /** Values one float ulp either side of a rounding half-point of the
    * `Int` copy, so each value's `q` is off by almost 1/2, and the filter
    * value of a target can sit almost `dim` above or below `S` times its
    * distance: the bound's worst case. A target value is the row's grid
    * point or one step above or below it. A "pulled" target rounds every
    * value one step towards the row (filter value 0, `S·D ≈ dim`); a
    * "pushed" one rounds every value one step away from it, `z` of them at
    * the row's own grid point (filter value `2·dim − z`, `S·D ≈ dim − z`),
    * so it is nearer than a pulled target whose filter value is far lower.
    * Other targets are random. In half the cases value 0 is anywhere within
    * 1.5 grid steps of the row's, so distances also differ by fractions of
    * a step. The targets are quantized for the row and a vector of ones, so
    * the largest value is 1 and `S` is the largest power of two
    * `<= (2³¹ − 1) / (2·dim)`.
    */
  private val genHalfPoints: Gen[BoundCase] = for {
    dim   <- Gen.choose(1, 8)
    n     <- Gen.choose(1, 60)
    row   <- Gen.listOfN(dim, Gen.zip(Gen.choose(-3, 3), Gen.oneOf(true, false)))
    modes <- Gen.listOfN(n, Gen.zip(Gen.oneOf("pulled", "pushed", "random"), Gen.choose(0, dim)))
    rnd   <- Gen.listOfN(n, Gen.listOfN(dim, Gen.zip(Gen.choose(-1, 1), Gen.oneOf(true, false))))
    free  <- Gen.oneOf(true, false)
    off   <- Gen.listOfN(n, Gen.choose(-1.5, 1.5))
  } yield {
    val s = math.scalb(1.0, math.getExponent((Int.MaxValue / (2 * dim)).toDouble))
    def half(j: Int, up: Boolean) = { val x = ((j + 0.5) / s).toFloat; if (up) Math.nextUp(x) else Math.nextDown(x) }
    val r = row.map { case (j, up) => half(j, up) }.toArray
    val targets = modes.zip(rnd).zip(off).map { case (((mode, z), steps), o) =>
      val t = row.zip(steps).zipWithIndex.map { case (((j, up), (step, upT)), d) => mode match {
        case "pulled" => half(if (up) j + 1 else j - 1, !up)          // q equals the row's
        case "pushed" if d < z => half(j, !up)                        // q one off, D ≈ 0
        case "pushed" => half(if (up) j - 1 else j + 1, up)           // q two off, D ≈ one step
        case _ => half(j + step, upT)
      } }.toArray
      if (free) t(0) = (r(0) + o / s).toFloat
      t
    }.toArray
    (r, targets, Array(r, Array.fill(dim)(1f)))
  }

  test("property: l1TopK is exact at the filter bound (near ties, half-point rounding, large magnitudes, non-finite values)") {
    checkProp(Prop.forAll(Gen.oneOf(genUlps, genHalfPoints), Gen.choose(1, 20)) { case ((row, tv, quantizedFor), k) =>
      val (idx, sc) = VecOps.l1TopK(row, L1Targets(tv, quantizedFor), k)
      val got = bits(idx.toSeq.zip(sc.toSeq))
      // NaN scores order differently in the boxed reference, so there the
      // reference is every target offered to a TopK
      if (tv.exists(_.exists(_.isNaN))) {
        val top = new TopK(k)
        tv.indices.foreach(t => top.offer(VecOps.manhattanSim(row, tv(t)), t))
        val (ri, rs) = top.result()
        got == bits(ri.toSeq.zip(rs.toSeq))
      } else got == bits(repro.ReferenceKernels.sensRow(row, tv, k).toSeq)
    }, minSuccessful = 1000)
  }

  test("the blocked filter equals the row-major Int reduction at block edges and on the exact path") {
    val b = L1Targets.Block
    for (n <- Seq(0, 1, b - 1, b, b + 1, 3 * b + 7); dim <- Seq(1, 48, 64, 192)) {
      val tv = Array.tabulate(n)(t => VecOps.hashGaussian(n * 1000L + t, dim))
      val row = VecOps.hashGaussian(-1L - dim, dim)
      // non-finite values in the first block, a middle one and the short last one
      val exact = if (n < 3) Seq.empty else Seq(0, n / 2, n - 1 - n % b / 2)
      exact.zip(Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)).foreach { case (t, x) => tv(t)(dim / 2) = x }
      val targets = L1Targets(tv, Array(row))
      val qt = tv.map(targets.quantized)
      val qFlat = qt.flatMap(_.getOrElse(new Array[Int](dim)))
      for (r <- Seq(row, row.map(_ * 1e7f))) { // the second row is past the scale: the exact path
        val out = Array.fill(n)(7)
        targets.filter(r, out)
        val expect = repro.ReferenceKernels.l1Filter(targets.quantized(r), qFlat, qt.map(_.isEmpty), dim)
        assert(out.toSeq == expect.toSeq, s"n = $n, dim = $dim")
        assert(exact.forall(out(_) == -1) && (r eq row) == targets.quantized(r).isDefined)
      }
    }
  }

  test("property: kthCut is the cut of the k-th smallest filter value, by sort") {
    val gen = for {
      dim  <- Gen.choose(1, 200)
      n    <- Gen.oneOf(Gen.choose(0, 12), Gen.choose(100, 2000))
      top  <- Gen.oneOf(3, 1000, Int.MaxValue / (2 * dim) * dim)
      q    <- Gen.containerOfN[Array, Int](n, Gen.choose(0, top))
      at   <- Gen.frequency(4 -> Gen.const(-1), 1 -> Gen.choose(0, math.max(0, n - 1)))
      k    <- Gen.oneOf(Gen.choose(0, 3), Gen.choose(0, n + 2), Gen.const(50))
    } yield {
      if (at >= 0 && n > 0) q(at) = -1 // an exact-path target
      (dim, q, k)
    }
    checkProp(Prop.forAll(gen) { case (dim, q, k) =>
      val targets = L1Targets(Array(Array.fill(dim)(1f)), Array.empty)
      val expect =
        if (k == 0 || q.length < k || q.exists(_ < 0)) Int.MaxValue
        else targets.cut(targets.floorScore(q.sorted.apply(k - 1)))
      targets.kthCut(q, k) == expect
    }, minSuccessful = 300)
    intercept[IllegalArgumentException](L1Targets(Array(Array(1f)), Array.empty).kthCut(Array(1), -1))
  }

  test("the filter rescores under 10 % of 2,000 x 2,000 unit-norm 64-dim rows at k = 50") {
    def vecs(n: Int, salt: Long) = Array.tabulate(n)(i => VecOps.normalize(VecOps.hashGaussian(salt + i, 64)))
    val (src, tgt) = (vecs(2000, 1), vecs(2000, 1 << 20))
    val targets = L1Targets(tgt, src)
    var rescored = 0L
    src.indices.foreach { i =>
      val top = new TopK(50)
      rescored += VecOps.l1Scan(src(i), targets, top)
      if (i % 100 == 0) {
        val (idx, sc) = top.result()
        assert(bits(idx.toSeq.zip(sc.toSeq)) == bits(repro.ReferenceKernels.sensRow(src(i), tgt, 50).toSeq))
      }
    }
    val share = rescored.toDouble / (2000L * 2000)
    info(f"rescored ${share * 100}%.2f %% of targets")
    assert(share < 0.10)
  }
}
