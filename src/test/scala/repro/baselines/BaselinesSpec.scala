package repro.baselines

import org.scalacheck.{Gen, Prop}
import repro.{PropHelper, ReferenceKernels, SparkSpec, TestGraphs}
import repro.embed.VecOps
import repro.exp.Datasets
import repro.kg.KGGen

/** Unit tests for the lite competitor implementations. */
class BaselinesSpec extends SparkSpec with PropHelper {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())

  private lazy val gcn = Baselines.gcnAlign(spark, ds)
  private lazy val rrea = Baselines.rrea(spark, ds)
  private lazy val multike = Baselines.multiKe(spark, ds)
  private lazy val rdgcn = Baselines.rdgcn(spark, ds)
  private lazy val bertInt = Baselines.bertInt(spark, ds)

  test("all baselines produce sane scores and positive time") {
    Seq("GCNAlign" -> gcn, "RREA" -> rrea, "MultiKE" -> multike,
        "RDGCN" -> rdgcn, "BERT-INT" -> bertInt).foreach { case (nm, r) =>
      info(f"$nm: ${r.scores.pretty} in ${r.seconds}%.1fs")
      assert(r.scores.hits1 >= 0 && r.scores.hits1 <= 1, nm)
      assert(r.scores.hits5 >= r.scores.hits1, nm)
      assert(r.seconds > 0, nm)
    }
  }

  test("RREA beats GCNAlign (structure-model ordering, Table 2)") {
    assert(rrea.scores.hits1 >= gcn.scores.hits1 - 0.02,
      s"rrea=${rrea.scores.hits1} gcn=${gcn.scores.hits1}")
  }

  test("name-aware baselines beat structure-only GCNAlign (Table 2)") {
    assert(multike.scores.hits1 > gcn.scores.hits1)
    assert(rdgcn.scores.hits1 > gcn.scores.hits1)
    assert(bertInt.scores.hits1 > gcn.scores.hits1)
  }

  test("BERT-INT is the accuracy leader among competitors (Table 2)") {
    val best = Seq(gcn, rrea, multike, rdgcn).map(_.scores.hits1).max
    assert(bertInt.scores.hits1 >= best - 0.02,
      s"bertInt=${bertInt.scores.hits1} bestOther=$best")
  }

  test("interaction score is 1 for identical token sets, less for disjoint") {
    val a = Array(VecOps.normalize(VecOps.hashGaussian(1, 8)))
    val b = Array(VecOps.normalize(VecOps.hashGaussian(2, 8)))
    assert(Baselines.interaction(a, a) == 1.0)
    assert(Baselines.interaction(a, b) < 1.0)
    assert(Baselines.interaction(Array.empty, a) == 0.0)
  }

  test("interaction is symmetric") {
    val a = Array(VecOps.hashGaussian(1, 8), VecOps.hashGaussian(2, 8))
    val b = Array(VecOps.hashGaussian(3, 8))
    assert(math.abs(Baselines.interaction(a, b) - Baselines.interaction(b, a)) < 1e-12)
  }

  test("property: RDGCN-lite on the shared layer equals the former triple scatter bit for bit") {
    val gen = for {
      graph <- TestGraphs.gen
      dim   <- Gen.choose(1, 8)
      h0    <- Gen.listOfN(graph._1, Gen.listOfN(dim, Gen.choose(-1f, 1f)).map(_.toArray))
    } yield (graph._1, graph._2, h0.toArray)
    checkProp(Prop.forAll(gen) { case (n, triples, h0) =>
      TestGraphs.sameBits(Baselines.rdgcnPropagate(h0, triples),
        ReferenceKernels.rdgcnPropagate(n, triples, h0, layers = 2, selfWeight = 2.0f))
    }, minSuccessful = 300)
  }
}
