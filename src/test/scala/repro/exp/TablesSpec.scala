package repro.exp

import repro.SparkSpec
import repro.largeea.LargeEA
import repro.memmodel.MemModel
import repro.structure.GnnEA

/** Unit tests for the table harness (full-scale runs live in bench/). */
class TablesSpec extends SparkSpec {

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
    val spec = Datasets.Spec("tiny-k3", Datasets.tiny(), k = 3, MemModel.Scale(300, 300, 1000, 1000))
    val fwd = Datasets.get(spark, spec)
    val variants = Tables.largeEaVariants(spark, spec)
    assert(variants.map(v => (v._1, v._2)) == Seq(
      ("LargeEA-G EN->L", GnnEA.Gcn), ("LargeEA-G L->EN", GnnEA.Gcn),
      ("LargeEA-R EN->L", GnnEA.Rrea), ("LargeEA-R L->EN", GnnEA.Rrea)))
    variants.foreach { case (method, model, res) =>
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
}
