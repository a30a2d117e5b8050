package repro.memmodel

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Datasets

/** Unit tests for the analytic memory model: calibration anchors and the
  * OOM pattern of Tables 2/3/6 must reproduce.
  */
class MemModelSpec extends AnyFunSuite {

  private val ids15k = Datasets.Ids15kEnFr.represented
  private val ids100k = Datasets.Ids100kEnFr.represented
  private val dbp1mFr = Datasets.Dbp1mEnFr.represented
  private val dbp1mDe = Datasets.Dbp1mEnDe.represented

  test("GCNAlign near paper anchors (0.13G @15K, 1.00G @100K)") {
    assert(math.abs(MemModel.gcnAlign(ids15k).gpuGB - 0.13) < 0.05)
    assert(math.abs(MemModel.gcnAlign(ids100k).gpuGB - 1.0) < 0.2)
  }

  test("MultiKE near paper anchors (6.52G @15K, 16.08G @100K)") {
    assert(math.abs(MemModel.multiKe(ids15k).gpuGB - 6.52) < 0.5)
    assert(math.abs(MemModel.multiKe(ids100k).gpuGB - 16.08) < 0.5)
  }

  test("RDGCN near paper anchors (8.02G @15K, 16.02G @100K)") {
    assert(math.abs(MemModel.rdgcn(ids15k).gpuGB - 8.02) < 0.5)
    assert(math.abs(MemModel.rdgcn(ids100k).gpuGB - 16.02) < 0.5)
  }

  test("RREA near its 15K anchor and OOM at 100K (the paper's '-' cell)") {
    assert(math.abs(MemModel.rrea(ids15k).gpuGB - 4.07) < 0.7)
    assert(!MemModel.rrea(ids15k).oom)
    assert(MemModel.rrea(ids100k).oom)
  }

  test("BERT-INT: constant 14.07G GPU, RAM explodes with scale") {
    assert(MemModel.bertInt(ids15k).gpuGB == 14.07)
    assert(MemModel.bertInt(ids15k).ramGB < 128)
    assert(MemModel.bertInt(ids100k).ramGB < 128) // 58G fits the 128G box
    assert(MemModel.bertInt(dbp1mFr).oom, "BERT-INT must fail on DBP1M (needs >>128G RAM)")
    assert(MemModel.bertInt(dbp1mFr).ramGB > 580, "paper extrapolates >=580G")
  }

  test("all five competitors OOM on DBP1M (Table 3 has no competitor rows)") {
    Seq(dbp1mFr, dbp1mDe).foreach { s =>
      assert(MemModel.multiKe(s).oom)
      assert(MemModel.rdgcn(s).oom)
      assert(MemModel.rrea(s).oom)
      assert(MemModel.bertInt(s).oom)
    }
    // GCNAlign's GPU need stays linear; its failure is the dense host-side
    // similarity matrix at inference (|Es|·|Et| floats)
    assert(MemModel.gcnAlign(dbp1mFr).oom)
    assert(MemModel.gcnAlign(dbp1mDe).oom)
  }

  test("LargeEA fits the GPU everywhere (Tables 2/3)") {
    for (s <- Seq(ids15k, ids100k); k <- Seq(5, 10)) {
      assert(!MemModel.largeEa(MemModel.rrea, s, k).oom, s"RREA k=$k $s")
      assert(!MemModel.largeEa(MemModel.gcnAlign, s, k).oom, s"GCN k=$k $s")
    }
    assert(!MemModel.largeEa(MemModel.rrea, dbp1mFr, 20).oom)
    assert(!MemModel.largeEa(MemModel.gcnAlign, dbp1mDe, 20).oom)
  }

  test("LargeEA saves large factors of memory vs BERT-INT (paper: up to 9x)") {
    val le = MemModel.largeEa(MemModel.rrea, ids15k, 5).gpuGB
    val bi = MemModel.bertInt(ids15k).gpuGB
    assert(bi / le >= 5, s"saving factor ${bi / le}")
  }

  test("partitioning shrinks the structure channel (Table 6 CPS vs w/o p.)") {
    val withK = MemModel.structChannel(MemModel.rrea, ids15k, 5)
    val noPart = MemModel.structChannel(MemModel.rrea, ids15k, 1)
    assert(withK.gpuBytes < noPart.gpuBytes / 2)
  }

  test("structure channel w/o partition is OOM at 100K for RREA (Table 6 '-')") {
    assert(MemModel.structChannel(MemModel.rrea, ids100k, 1).oom)
    assert(!MemModel.structChannel(MemModel.rrea, ids100k, 10).oom)
  }

  test("name channel near its anchors (1.54G @15K, ~1.7G @100K)") {
    assert(math.abs(MemModel.nameChannel(ids15k).gpuGB - 1.54) < 0.2)
    assert(math.abs(MemModel.nameChannel(ids100k).gpuGB - 1.74) < 0.3)
    val dbp = MemModel.nameChannel(dbp1mFr).gpuGB
    assert(dbp > 4 && dbp < 12, s"DBP1M name channel ~5-8G, got $dbp")
  }

  test("footprint formatting") {
    assert(MemModel.Footprint(1.5e9, 0).prettyGpu == "1.50G")
    assert(MemModel.Footprint(25e9, 0).prettyGpu == "-")
    assert(MemModel.Footprint(1e9, 200e9).oom)
  }
}
