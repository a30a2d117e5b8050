package repro.baselines

import org.scalacheck.{Gen, Prop}
import repro.{PropHelper, ReferenceKernels, SparkSpec, TestGraphs}
import repro.embed.VecOps
import repro.eval.Metrics
import repro.exp.Datasets
import repro.kg.KGGen
import repro.sim.SimMatrix

/** Unit tests for the lite competitor implementations. */
class BaselinesSpec extends SparkSpec with PropHelper {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())

  private def score(sim: SimMatrix) = Metrics.evaluate(sim, ds.testPairs)

  private lazy val gcn = score(Baselines.gcnAlign(spark, ds))
  private lazy val rrea = score(Baselines.rrea(spark, ds))
  private lazy val multike = score(Baselines.multiKe(spark, ds))
  private lazy val rdgcn = score(Baselines.rdgcn(spark, ds))
  private lazy val bertInt = score(Baselines.bertInt(spark, ds))

  test("all baselines produce sane scores") {
    Seq("GCNAlign" -> gcn, "RREA" -> rrea, "MultiKE" -> multike,
        "RDGCN" -> rdgcn, "BERT-INT" -> bertInt).foreach { case (nm, s) =>
      info(s"$nm: ${s.pretty}")
      assert(s.hits1 >= 0 && s.hits1 <= 1, nm)
      assert(s.hits5 >= s.hits1, nm)
    }
  }

  test("RREA beats GCNAlign (structure-model ordering, Table 2)") {
    assert(rrea.hits1 >= gcn.hits1 - 0.02,
      s"rrea=${rrea.hits1} gcn=${gcn.hits1}")
  }

  test("name-aware baselines beat structure-only GCNAlign (Table 2)") {
    assert(multike.hits1 > gcn.hits1)
    assert(rdgcn.hits1 > gcn.hits1)
    assert(bertInt.hits1 > gcn.hits1)
  }

  test("BERT-INT is the accuracy leader among competitors (Table 2)") {
    val best = Seq(gcn, rrea, multike, rdgcn).map(_.hits1).max
    assert(bertInt.hits1 >= best - 0.02,
      s"bertInt=${bertInt.hits1} bestOther=$best")
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
      TestGraphs.sameBits(Baselines.rdgcnPropagate(h0, TestGraphs.flat(triples)),
        ReferenceKernels.rdgcnPropagate(n, triples, h0, layers = 2, selfWeight = 2.0f))
    }, minSuccessful = 300)
  }
}
