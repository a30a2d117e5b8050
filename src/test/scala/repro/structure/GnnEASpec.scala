package repro.structure

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropHelper, ReferenceKernels, TestGraphs}
import repro.embed.VecOps
import repro.kg.Graph

/** Unit tests for the training-free GNN EA model. */
class GnnEASpec extends AnyFunSuite with PropHelper {

  // A small graph: 0-1-2-3 chain plus 1-4
  private val triples = Array((0, 0, 1), (1, 0, 2), (2, 1, 3), (1, 1, 4))

  /** `GnnEA.embed` over the model's adjacency of tuple triples, with anchors given as a map. */
  private def embed(
      n: Int, triples: Array[(Int, Int, Int)], anchors: Map[Int, Long],
      cfg: GnnEA.Config, sideSalt: Long): Array[Array[Float]] =
    GnnEA.embed(GnnEA.adjacency(n, TestGraphs.flat(triples), cfg), Array.tabulate(n)(anchors.getOrElse(_, -1L)),
      GnnEA.noise(n, sideSalt), cfg)

  test("deterministic embeddings") {
    val a = embed(5, triples, Map(0 -> 1L), GnnEA.Rrea, 7L)
    val b = embed(5, triples, Map(0 -> 1L), GnnEA.Rrea, 7L)
    assert(a.zip(b).forall { case (x, y) => x.toSeq == y.toSeq })
  }

  test("output dimension: GCN = dim, RREA = dim*(layers+1)") {
    val g = embed(5, triples, Map(), GnnEA.Gcn, 1L)
    val r = embed(5, triples, Map(), GnnEA.Rrea, 1L)
    assert(g.head.length == GnnEA.Dim)
    assert(r.head.length == GnnEA.Dim * (GnnEA.Rrea.layers + 1))
  }

  test("all embeddings are unit-norm") {
    val h = embed(5, triples, Map(2 -> 5L), GnnEA.Rrea, 3L)
    h.foreach { v =>
      val n = math.sqrt(v.map(x => x.toDouble * x).sum)
      assert(math.abs(n - 1.0) < 1e-3)
    }
  }

  test("isomorphic graphs with shared seed anchors align perfectly") {
    // same chain on both "sides", seeds at both ends, query the middle
    val chain = Array((0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4))
    val anchors = Map(0 -> 100L, 4 -> 200L)
    val hs = embed(5, chain, anchors, GnnEA.Rrea, sideSalt = 1L)
    val ht = embed(5, chain, anchors, GnnEA.Rrea, sideSalt = 2L)
    // entity i on side s must be closest to entity i on side t
    (0 until 5).foreach { i =>
      val dists = (0 until 5).map(j => VecOps.manhattan(hs(i), ht(j)))
      assert(dists.indexOf(dists.min) == i, s"entity $i misaligned: $dists")
    }
  }

  test("seeded entity is closest to its counterpart even with different noise") {
    // RREA (layer concat) keeps layer-0 information, so the anchored entity
    // stays distinguishable from its neighbours after propagation; plain
    // GCN smears the anchor over the 1-hop neighbourhood (that coarseness
    // is exactly why GCN-Align scores low in the paper).
    val anchors = Map(1 -> 42L)
    val a = embed(5, triples, anchors, GnnEA.Rrea, 11L)
    val b = embed(5, triples, anchors, GnnEA.Rrea, 22L)
    val d = (0 until 5).map(j => VecOps.manhattan(a(1), b(j)))
    assert(d.indexOf(d.min) == 1)
  }

  test("no anchors -> embeddings are pure noise, sides disagree") {
    val a = embed(3, Array((0, 0, 1), (1, 0, 2)), Map(), GnnEA.Gcn, 1L)
    val b = embed(3, Array((0, 0, 1), (1, 0, 2)), Map(), GnnEA.Gcn, 2L)
    // distances should be large and unstructured (no shared signal)
    val d01 = VecOps.manhattan(a(0), b(0))
    assert(d01 > 0.5, s"uncorrelated noise should be distant, got $d01")
  }

  test("relation weighting changes RREA embeddings but not GCN's") {
    val t1 = Array((0, 0, 1), (1, 0, 2), (2, 0, 3))
    val t2 = Array((0, 0, 1), (1, 1, 2), (2, 2, 3)) // same edges, different relations
    val anchors = Map(0 -> 9L)
    val r1 = embed(4, t1, anchors, GnnEA.Rrea, 5L)
    val r2 = embed(4, t2, anchors, GnnEA.Rrea, 5L)
    assert(r1(1).toSeq != r2(1).toSeq, "RREA is relation-aware")
    val g1 = embed(4, t1, anchors, GnnEA.Gcn, 5L)
    val g2 = embed(4, t2, anchors, GnnEA.Gcn, 5L)
    assert(g1(1).toSeq == g2(1).toSeq, "GCN ignores relation types")
  }

  test("self-loops are ignored") {
    val a = embed(2, Array((0, 0, 1)), Map(0 -> 1L), GnnEA.Gcn, 3L)
    val b = embed(2, Array((0, 0, 1), (1, 0, 1)), Map(0 -> 1L), GnnEA.Gcn, 3L)
    assert(a.zip(b).forall { case (x, y) => x.toSeq == y.toSeq })
  }

  test("empty graph still produces valid embeddings") {
    val h = embed(3, Array.empty, Map(1 -> 3L), GnnEA.Rrea, 1L)
    assert(h.length == 3)
    assert(h.forall(_.forall(x => !x.isNaN)))
  }

  test("anchor influence propagates with distance decay") {
    // star: 0 anchored; 1 adjacent; 4 two hops away
    val star = Array((0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4))
    val hs = embed(5, star, Map(0 -> 77L), GnnEA.Rrea, 1L)
    val ht = embed(5, star, Map(0 -> 77L), GnnEA.Rrea, 2L)
    val dNear = VecOps.manhattan(hs(1), ht(1))
    val dFar = VecOps.manhattan(hs(4), ht(4))
    assert(dNear < dFar, s"near=$dNear far=$dFar: signal should decay with distance")
  }

  test("property: CSR embed equals the former boxed-adjacency embed bit for bit") {
    val gen = for {
      graph   <- TestGraphs.gen
      anchors <- Gen.listOfN(graph._1, Gen.frequency(3 -> Gen.const(-1L), 1 -> Gen.choose(0L, 6L)))
      salt    <- Gen.choose(0L, 1000L)
    } yield (graph._1, graph._2, anchors.toArray, salt)
    checkProp(Prop.forAll(gen) { case (n, triples, anchors, salt) =>
      val none = Array.fill(n)(-1L)
      val noise = GnnEA.noise(n, salt)
      Seq(GnnEA.Gcn, GnnEA.Rrea).forall { cfg =>
        val adj = GnnEA.adjacency(n, TestGraphs.flat(triples), cfg)
        Seq(anchors, none).forall { a =>
          val anchorMap = a.indices.filter(a(_) >= 0).map(e => e -> a(e)).toMap
          TestGraphs.sameBits(GnnEA.embed(adj, a, noise, cfg),
            ReferenceKernels.gnnEmbed(n, triples, anchorMap, cfg, salt))
        }
      }
    }, minSuccessful = 300)
  }

  test("adjacency keeps each vertex's neighbours in triple order and drops self-loops") {
    val adj = Graph.fromTriples(4, TestGraphs.flat(Seq((2, 0, 0), (1, 0, 1), (0, 1, 3), (2, 2, 0), (3, 0, 2))))(
      (r, _) => r.toFloat)
    assert(adj.ptr.toSeq == Seq(0, 3, 3, 6, 8))
    assert(adj.nbr.toSeq == Seq(2, 3, 2, 0, 0, 3, 0, 2))
    assert(adj.w.toSeq == Seq(0.0, 1.0, 2.0, 0.0, 2.0, 0.0, 1.0, 0.0))
    // degrees 1, 2, 1: both edges weigh √(1·2)
    val path = Graph.fromTriples(3, TestGraphs.flat(Seq((0, 0, 1), (1, 0, 2))))((_, norm) => norm.toFloat)
    assert(path.w.toSeq == Seq.fill(4)(math.sqrt(2.0).toFloat.toDouble))
  }
}
