package repro.bench

import repro.SparkSpec
import repro.exp.Tables
import repro.memmodel.MemModel
import repro.exp.Datasets

/** Reproduces Table 6 — GPU memory usage of LargeEA (analytic model at
  * represented scale; see DESIGN.md §2 for the substitution).
  *
  * Paper anchors: IDS15K name channel 1.54G, LargeEA-R 1.01G/4.07G;
  * IDS100K LargeEA-R 4.04G/"-"; DBP1M name channel 4.6–7.4G,
  * LargeEA-R 16–21G/"-".
  */
class Table6Bench extends SparkSpec {

  test("Table 6: GPU memory usage of LargeEA") {
    val rows = Tables.table6()
    println("\n=== Table 6 — modeled GPU memory usage of LargeEA ===")
    println(Tables.renderTable6(rows))

    def gb(s: String): Double = s.stripSuffix("G").toDouble
    def cpsOf(pair: String): String = pair.split("/")(0)
    def noPartOf(pair: String): String = pair.split("/")(1)

    val byDs = rows.groupBy(_.dataset).view.mapValues(_.head).toMap

    // name channel grows with scale but stays modest (paper: 1.5G -> ~7G)
    assert(gb(byDs("IDS15K-EN-FR").nameChannel) < gb(byDs("DBP1M-EN-FR").nameChannel))
    assert(gb(byDs("DBP1M-EN-FR").nameChannel) < 12)

    // partitioned structure channel always fits; w/o partition RREA fits
    // only at the 15K tier (paper's "-" cells at 100K/1M)
    rows.foreach { r =>
      assert(cpsOf(r.structR) != "-", s"${r.dataset}: CPS RREA must fit")
      assert(cpsOf(r.structG) != "-", s"${r.dataset}: CPS GCN must fit")
    }
    assert(noPartOf(byDs("IDS15K-EN-FR").structR) != "-")
    assert(noPartOf(byDs("IDS100K-EN-FR").structR) == "-")
    assert(noPartOf(byDs("DBP1M-EN-FR").structR) == "-")

    // partitioning saves a large factor where both sides are defined
    val r15 = byDs("IDS15K-EN-FR").structR
    assert(gb(noPartOf(r15)) / gb(cpsOf(r15)) > 2,
      s"partitioning should save >2x at 15K: $r15")

    // RREA structure channel needs more memory than GCN's (paper Table 6)
    rows.foreach { r =>
      assert(gb(cpsOf(r.structR)) >= gb(cpsOf(r.structG)) - 0.01, r.dataset)
    }

    // cross-check one anchor against the model directly
    val fp = MemModel.structChannel(MemModel.rrea, Datasets.Ids15kEnFr.represented, 1)
    assert(math.abs(fp.gpuGB - 4.07) < 0.7, s"RREA w/o partition @15K: ${fp.gpuGB}")
  }
}
