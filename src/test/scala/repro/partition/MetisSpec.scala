package repro.partition

import org.scalacheck.{Gen, Prop}
import repro.{PropHelper, SparkSpec, TestGraphs}
import repro.kg.Graph
import scala.util.Random

/** Unit + property tests for the multilevel METIS substitute. */
class MetisSpec extends SparkSpec with PropHelper {

  private def ring(n: Int): Graph =
    TestGraphs.graph(n, (0 until n).map(i => (i, (i + 1) % n, 1.0)))

  private def twoCliques(m: Int): Graph = {
    val edges = (for {
      i <- 0 until m; j <- i + 1 until m
    } yield Seq((i, j, 1.0), (m + i, m + j, 1.0))).flatten :+ ((m - 1, m, 1.0))
    TestGraphs.graph(2 * m, edges.map { case (a, b, c) => (a, b, c) })
  }

  test("k=1 puts everything in one part") {
    val p = Metis.partition(ring(10), 1)
    assert(p.toSet == Set(0))
  }

  test("k >= n assigns every vertex its own residue class") {
    val p = Metis.partition(ring(4), 8)
    assert(p.length == 4)
    assert(p.forall(x => x >= 0 && x < 8))
  }

  test("two cliques joined by one edge split exactly at the bridge") {
    val g = twoCliques(12)
    val p = Metis.partition(g, 2)
    // all of clique A in one part, all of clique B in the other
    assert(p.take(12).toSet.size == 1)
    assert(p.drop(12).toSet.size == 1)
    assert(p(0) != p(12))
    assert(Metis.cutWeight(g, p) == 1.0)
  }

  test("ring of 40 into 4 parts cuts exactly 4 edges when ideal") {
    val g = ring(40)
    val p = Metis.partition(g, 4)
    // ideal cut = 4; accept near-ideal from the heuristic
    assert(Metis.cutWeight(g, p) <= 8.0, s"cut=${Metis.cutWeight(g, p)}")
    val sizes = p.groupBy(identity).view.mapValues(_.length).values.toSeq
    assert(sizes.max <= 16, s"imbalanced: $sizes")
  }

  test("heavy edges are preserved, light edges cut") {
    // chain a-b=c-d where b=c has huge weight: cut must avoid b-c
    val g = TestGraphs.graph(4, Seq((0, 1, 1.0), (1, 2, 100.0), (2, 3, 1.0)))
    val p = Metis.partition(g, 2)
    assert(p(1) == p(2), "the w=100 edge must not be cut")
  }

  test("zero-weight edges are free to cut") {
    // two triangles connected by a zero-weight edge
    val g = TestGraphs.graph(6,
      Seq((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
          (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 0.0)))
    val p = Metis.partition(g, 2)
    assert(p(0) == p(1) && p(1) == p(2))
    assert(p(3) == p(4) && p(4) == p(5))
    assert(p(0) != p(3))
    assert(Metis.cutWeight(g, p) == 0.0)
  }

  test("partition is deterministic in the seed") {
    val g = randomGraph(300, 900, 1)
    val a = Metis.partition(g, 4, seed = 11)
    val b = Metis.partition(g, 4, seed = 11)
    assert(a.toSeq == b.toSeq)
  }

  test("cut is far below random partition cut on a structured graph") {
    val g = twoCliquesChain(8, 20) // 8 cliques of 20 in a chain
    val p = Metis.partition(g, 8)
    val rnd = new Random(1)
    val randomPart = Array.fill(g.n)(rnd.nextInt(8))
    assert(Metis.cutWeight(g, p) < Metis.cutWeight(g, randomPart) / 4,
      s"metis=${Metis.cutWeight(g, p)} random=${Metis.cutWeight(g, randomPart)}")
  }

  test("Graph.fromEdges sums parallel edges and drops self loops") {
    val g = TestGraphs.graph(3, Seq((0, 1, 1.0), (1, 0, 2.0), (2, 2, 9.0)))
    assert(g.ptr.toSeq == Seq(0, 1, 2, 2))
    assert(g.nbr.toSeq == Seq(1, 0))
    assert(g.w.toSeq == Seq(3.0, 3.0))
    // neighbour lists are sorted by id
    val h = TestGraphs.graph(4, Seq((0, 3, 1.0), (2, 0, 1.0), (0, 1, 1.0)))
    assert(h.nbr.slice(h.ptr(0), h.ptr(1)).toSeq == Seq(1, 2, 3))
    // an endpoint outside [0, n) is rejected
    assert(intercept[IllegalArgumentException](TestGraphs.graph(2, Seq((0, -1, 1.0))))
      .getMessage.contains("outside [0, 2)"))
  }

  test("cutWeight counts each edge once") {
    val g = TestGraphs.graph(2, Seq((0, 1, 2.5)))
    assert(Metis.cutWeight(g, Array(0, 1)) == 2.5)
    assert(Metis.cutWeight(g, Array(0, 0)) == 0.0)
  }

  // ---- properties ----------------------------------------------------------

  private def randomGraph(n: Int, m: Int, seed: Int): Graph = {
    val r = new Random(seed)
    val edges = (0 until m).map(_ => (r.nextInt(n), r.nextInt(n), 1.0))
    TestGraphs.graph(n, edges)
  }

  private def twoCliquesChain(k: Int, m: Int): Graph = {
    val edges = scala.collection.mutable.ArrayBuffer[(Int, Int, Double)]()
    for (c <- 0 until k; i <- 0 until m; j <- i + 1 until m)
      edges += ((c * m + i, c * m + j, 1.0))
    for (c <- 0 until k - 1) edges += ((c * m + m - 1, (c + 1) * m, 1.0))
    TestGraphs.graph(k * m, edges.toSeq)
  }

  test("property: every vertex is assigned a valid part and balance holds") {
    checkProp(Prop.forAll(
      Gen.choose(20, 200), Gen.choose(2, 6), Gen.choose(0, 1000)) { (n: Int, k: Int, s: Int) =>
      val g = randomGraph(n, n * 3, s)
      val p = Metis.partition(g, k, seed = s)
      val sizes = Array.fill(k)(0)
      p.foreach(sizes(_) += 1)
      // balance within a generous factor (heuristic + integrality slack)
      p.length == n &&
        p.forall(x => x >= 0 && x < k) &&
        sizes.max <= math.ceil(n.toDouble / k * 1.6) + 2
    }, minSuccessful = 20)
  }

  test("property: parts do not depend on edge order, orientation or splitting") {
    checkProp(Prop.forAll(
      Gen.choose(20, 200), Gen.choose(2, 6), Gen.choose(0, 1000)) { (n: Int, k: Int, s: Int) =>
      val r = new Random(s)
      val edges = (0 until n * 3).map(_ => (r.nextInt(n), r.nextInt(n), (1 + r.nextInt(4)).toDouble))
      // flip some edges, split some into two parallel edges whose weights
      // sum to the original, then permute the list
      val varied = r.shuffle(edges.flatMap { case (u, v, w) =>
        val (a, b) = if (r.nextBoolean()) (v, u) else (u, v)
        if (w >= 2 && r.nextBoolean()) Seq((a, b, 1.0), (b, a, w - 1)) else Seq((a, b, w))
      })
      val p = Metis.partition(TestGraphs.graph(n, edges), k, seed = s)
      p.toSeq == Metis.partition(TestGraphs.graph(n, varied), k, seed = s).toSeq
    }, minSuccessful = 20)
  }

  test("property: all k parts are non-empty when n >> k") {
    checkProp(Prop.forAll(Gen.choose(60, 200), Gen.choose(2, 5)) { (n: Int, k: Int) =>
      val g = randomGraph(n, n * 4, n + k)
      val p = Metis.partition(g, k, seed = 3)
      p.toSet.size == k
    }, minSuccessful = 15)
  }
}
