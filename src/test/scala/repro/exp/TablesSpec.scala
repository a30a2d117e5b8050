package repro.exp

import org.apache.spark.sql.SparkSession
import org.scalacheck.{Arbitrary, Gen, Prop}
import repro.{PropHelper, ReferenceKernels, SparkSpec}
import repro.baselines.Baselines
import repro.eval.Metrics
import repro.kg.EaDataset
import repro.largeea.LargeEA
import repro.memmodel.MemModel
import repro.sim.SimMatrix
import repro.structure.GnnEA

/** Unit tests for the table harness (full-scale runs live in bench/). */
class TablesSpec extends SparkSpec with PropHelper {

  private val tinyK3 = Datasets.Spec("tiny-k3", Datasets.tiny(), k = 3, MemModel.Scale(300, 300, 1000, 1000))

  test("dataset registry has the paper's six datasets with paper K values") {
    assert(Datasets.all.map(_.key) == Seq(
      "IDS15K-EN-FR", "IDS15K-EN-DE", "IDS100K-EN-FR", "IDS100K-EN-DE",
      "DBP1M-EN-FR", "DBP1M-EN-DE"))
    assert(Datasets.idsSpecs.map(_.k).toSet == Set(5, 10))
    assert(Datasets.dbpSpecs.forall(_.k == 20))
  }

  test("represented scales match paper Table 1 counts") {
    assert(Datasets.Dbp1mEnFr.represented.srcEnts == 1877793L)
    assert(Datasets.Dbp1mEnFr.represented.tgtTriples == 2997457L)
    assert(Datasets.Ids100kEnDe.represented.srcTriples == 335359L)
  }

  test("DBP1M lite configs keep the paper's asymmetry (EN side bigger)") {
    Datasets.dbpSpecs.foreach { s =>
      assert(s.cfg.nSrcExtra > s.cfg.nTgtExtra, s.key)
      assert(s.cfg.keepSrc > s.cfg.keepTgt, "EN denser than L")
    }
  }

  test("table 6 rows: partitioned structure channel is never OOM, no-partition RREA is OOM beyond 15K") {
    val rows = Tables.table6()
    assert(rows.size == Datasets.all.size * 2)
    rows.foreach { r =>
      val Array(cps, noPart) = r.structR.split("/")
      assert(cps != "-", s"${r.dataset} ${r.setting}: CPS side must fit: $cps")
      if (!r.dataset.startsWith("IDS15K")) assert(noPart == "-", s"${r.dataset} should OOM w/o partition")
    }
  }

  test("table 6: name channel grows with dataset scale") {
    val rows = Tables.table6()
    def gb(s: String): Double = s.stripSuffix("G").toDouble
    val by = rows.groupBy(_.dataset).view.mapValues(r => gb(r.head.nameChannel))
    assert(by("IDS15K-EN-FR") < by("IDS100K-EN-FR"))
    assert(by("IDS100K-EN-FR") < by("DBP1M-EN-FR"))
  }

  test("EA row rendering includes OOM dashes") {
    val rows = Seq(
      Tables.EaRow("D", "M", 0.5, 0.6, 0.55, 12.3, "1.50G"),
      Tables.EaRow("D", "OOMY", 0, 0, 0, 0, "-", oom = true))
    val s = Tables.renderEaRows(rows)
    assert(s.contains("50.0") && s.contains("1.50G"))
    assert(s.linesIterator.toSeq.last.count(_ == '-') >= 5)
  }

  test("table1/table5 renderers produce aligned headers") {
    val t1 = Tables.renderTable1(Seq(Tables.Table1Row("X", 1, 2, 3, 4, 5, 6)))
    assert(t1.linesIterator.next().contains("#Entities"))
    assert(t1.contains("1-2") && t1.contains("5-6"))
    val t5 = Tables.renderTable5(Seq(Tables.Table5Row("X", "VPS", "EN->L", 0.3, 1.0, 0.1)))
    assert(t5.contains("100.0") && t5.contains("30.0"))
  }

  test("tiny configs are small and fast by construction") {
    assert(Datasets.tiny().nCore == 300)
    assert(Datasets.tinyWithUnknowns().nSrcExtra > 0)
  }

  test("largeEaVariants runs each variant as a direct LargeEA.run, with every phase timed") {
    val spec = tinyK3
    val fwd = Datasets.get(spark, spec)
    val variants = Tables.largeEaVariants(spark, spec)
    val (g, r) = (MemModel.gcnAlign(tinyK3.represented), MemModel.rrea(tinyK3.represented))
    assert(variants.map(v => (v._1, v._2, v._3(tinyK3.represented))) == Seq(
      ("LargeEA-G EN->L", GnnEA.Gcn, g), ("LargeEA-G L->EN", GnnEA.Gcn, g),
      ("LargeEA-R EN->L", GnnEA.Rrea, r), ("LargeEA-R L->EN", GnnEA.Rrea, r)))
    variants.foreach { case (method, model, _, res) =>
      val ds = if (method.endsWith("EN->L")) fwd else fwd.reversed
      val direct = LargeEA.run(spark, ds, LargeEA.Config(model = model, k = spec.k))
      assert(res.scores == direct.scores, method)
      assert(res.pseudoSeedCount == direct.pseudoSeedCount, method)
      assert(res.fused.rowPtr.toSeq == direct.fused.rowPtr.toSeq, method)
      assert(res.fused.tgt.toSeq == direct.fused.tgt.toSeq, method)
      assert(res.fused.score.toSeq == direct.fused.score.toSeq, method)
      assert(Set("name", "dataAug", "partition", "structTrain", "fusion", "eval").subsetOf(res.timings.keySet),
        s"$method: missing phases in ${res.timings.keySet}")
    }
  }

  test("table2ForSpec scores each competitor's own matrix, and every row takes time") {
    val ds = Datasets.get(spark, tinyK3)
    val rows = Tables.table2ForSpec(spark, tinyK3)
    val competitors = Seq[(String, (SparkSession, EaDataset) => SimMatrix)](
      "GCNAlign" -> Baselines.gcnAlign, "MultiKE" -> Baselines.multiKe, "RDGCN" -> Baselines.rdgcn,
      "RREA" -> Baselines.rrea, "BERT-INT" -> Baselines.bertInt)
    assert(rows.map(_.method) == competitors.map(_._1) ++ Seq(
      "LargeEA-G EN->L", "LargeEA-G L->EN", "LargeEA-R EN->L", "LargeEA-R L->EN"))
    assert(rows.forall(!_.oom), "nothing is OOM at the tiny scale")
    competitors.foreach { case (name, run) =>
      val s = Metrics.evaluate(run(spark, ds), ds.testPairs)
      val r = rows.find(_.method == name).get
      assert((r.h1, r.h5, r.mrr) == ((s.hits1, s.hits5, s.mrr)), name)
    }
    rows.foreach(r => assert(r.seconds > 0, r.method))
  }

  test("property: the grid renderer prints all four tables byte for byte as the former renderers did") {
    // short and long cells: asciiPrintableStr grows past every column width
    val str = Gen.oneOf(Gen.alphaNumStr.map(_.take(5)), Gen.asciiPrintableStr)
    val num = Gen.oneOf(Gen.choose(0.0, 1.0), Gen.choose(-1e12, 1e12),
      Gen.oneOf(0.0, -0.0, 0.0005, 0.25, 1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
    val long = Gen.oneOf(Gen.choose(0L, 99999L), Arbitrary.arbitrary[Long])
    val t1 = for (d <- str; n <- Gen.listOfN(6, long))
      yield Tables.Table1Row(d, n(0), n(1), n(2), n(3), n(4), n(5))
    val ea = for {
      d <- str; m <- str; h1 <- num; h5 <- num; mrr <- num; secs <- num; mem <- str
      oom <- Gen.oneOf(true, false)
    } yield Tables.EaRow(d, m, h1, h5, mrr, secs, mem, oom)
    val t5 = for (d <- str; m <- str; dir <- str; total <- num; train <- num; test <- num)
      yield Tables.Table5Row(d, m, dir, total, train, test)
    val t6 = for (d <- str; set <- str; nc <- str; r <- str; g <- str) yield Tables.Table6Row(d, set, nc, r, g)
    assert(Tables.renderTable1(Nil) == ReferenceKernels.renderTable1(Nil))
    assert(Tables.renderEaRows(Nil) == ReferenceKernels.renderEaRows(Nil))
    assert(Tables.renderTable5(Nil) == ReferenceKernels.renderTable5(Nil))
    assert(Tables.renderTable6(Nil) == ReferenceKernels.renderTable6(Nil))
    checkProp(Prop.forAll(Gen.listOf(t1), Gen.listOf(ea), Gen.listOf(t5), Gen.listOf(t6)) { (a, b, c, d) =>
      Tables.renderTable1(a) == ReferenceKernels.renderTable1(a) &&
      Tables.renderEaRows(b) == ReferenceKernels.renderEaRows(b) &&
      Tables.renderTable5(c) == ReferenceKernels.renderTable5(c) &&
      Tables.renderTable6(d) == ReferenceKernels.renderTable6(d)
    }, minSuccessful = 300)
  }
}
