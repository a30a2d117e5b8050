package repro.largeea

import repro.SparkSpec
import repro.exp.Datasets
import repro.kg.KGGen
import repro.partition.Vps
import repro.structure.GnnEA

/** Ablations and pipeline behaviour of LargeEA on the tiny dataset
  * (guards the qualitative claims of paper Fig. 5 / §3.5).
  */
class LargeEASpec extends SparkSpec {

  private lazy val ds = KGGen.generate(spark, Datasets.tiny())
  private lazy val unk = KGGen.generate(spark, Datasets.tinyWithUnknowns())

  private def run(cfg: LargeEA.Config, onUnk: Boolean = false): LargeEA.Result =
    LargeEA.run(spark, if (onUnk) unk else ds, cfg)

  private lazy val full = run(LargeEA.Config(model = GnnEA.Rrea, k = 3))
  private lazy val noName = run(LargeEA.Config(model = GnnEA.Rrea, k = 3,
    useNameChannel = false, useDataAug = false))
  private lazy val noDa = run(LargeEA.Config(model = GnnEA.Rrea, k = 3, useDataAug = false))
  private lazy val noStruct = run(LargeEA.Config(model = GnnEA.Rrea, k = 3,
    useStructChannel = false))

  test("full pipeline beats w/o-name-channel (Fig. 5)") {
    info(s"full=${full.scores.pretty} noName=${noName.scores.pretty}")
    assert(full.scores.hits1 > noName.scores.hits1)
  }

  test("full pipeline >= w/o-DA (Fig. 5)") {
    info(s"full=${full.scores.pretty} noDA=${noDa.scores.pretty}")
    assert(full.scores.hits1 >= noDa.scores.hits1 - 0.02)
  }

  test("full pipeline >= w/o-structure-channel (Fig. 5)") {
    info(s"full=${full.scores.pretty} noStruct=${noStruct.scores.pretty}")
    assert(full.scores.hits1 >= noStruct.scores.hits1 - 0.02)
  }

  test("channel fusion is at least as good as each single channel") {
    assert(full.scores.hits1 >= full.structOnly.get.hits1 - 0.02)
    assert(full.scores.hits1 >= full.nameOnly.get.hits1 - 0.02)
  }

  test("DA augments the seed set beyond the training seeds") {
    assert(full.seedsUsed > ds.trainPairs.length)
    assert(full.pseudoSeedCount > 0)
    assert(full.pseudoSeedPrecision > 0.85)
  }

  test("unsupervised run uses only pseudo seeds and stays competitive (§3.5)") {
    val unsup = run(LargeEA.Config(model = GnnEA.Rrea, k = 3, unsupervised = true))
    info(s"supervised=${full.scores.pretty} unsupervised=${unsup.scores.pretty}")
    assert(unsup.seedsUsed == unsup.pseudoSeedCount)
    assert(unsup.scores.hits1 > full.scores.hits1 - 0.1,
      "unsupervised should be comparable to supervised")
  }

  test("VPS strategy yields lower structure-only accuracy than METIS-CPS") {
    // compare without DA: on the tiny dataset DA seeds ~90% of the
    // entities, which saturates the structure channel under any partition
    val cps = run(LargeEA.Config(model = GnnEA.Rrea, k = 3, useDataAug = false))
    val vps = run(LargeEA.Config(model = GnnEA.Rrea, k = 3, strategy = Vps, useDataAug = false))
    info(s"cps-struct=${cps.structOnly.get.pretty} vps-struct=${vps.structOnly.get.pretty}")
    assert(cps.structOnly.get.hits1 > vps.structOnly.get.hits1)
  }

  test("pipeline works on dataset with unknown entities") {
    val res = run(LargeEA.Config(model = GnnEA.Rrea, k = 3), onUnk = true)
    info(s"with unknowns: ${res.scores.pretty}")
    assert(res.scores.hits1 > 0.25)
    assert(res.scores.n == unk.testPairs.length)
  }

  test("timings cover every phase") {
    val keys = full.timings.keySet
    assert(Set("name", "dataAug", "partition", "structTrain", "fusion", "eval").subsetOf(keys),
      s"missing phases in $keys")
    assert(full.timings.values.forall(_ >= 0))
  }

  test("same scores, pseudo seeds and fused cells at 1, 8 and 64 shuffle partitions") {
    // the default METIS-CPS: the mini-batches, and so every structure-channel
    // score, must not depend on how Spark splits any work
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    val cfg = LargeEA.Config(model = GnnEA.Rrea, k = 3)
    val runs =
      try Seq(1, 8, 64).map { n =>
        spark.conf.set(key, n.toString)
        val r = LargeEA.run(spark, KGGen.generate(spark, Datasets.tiny()), cfg)
        (r.scores, r.pseudoSeeds.toSeq, r.fused.rowPtr.toSeq, r.fused.tgt.toSeq, r.fused.score.toSeq)
      } finally spark.conf.set(key, before)
    assert(runs.head._2.nonEmpty && runs.head._4.nonEmpty)
    val what = Seq("scores", "pseudo seeds", "fused rowPtr", "fused targets", "fused scores")
    what.indices.foreach { i =>
      assert(runs.map(_.productElement(i)).distinct.size == 1, s"${what(i)} differ across partition counts")
    }
  }

  test("LargeEA-G (GCN model) also runs and is reasonable") {
    val g = run(LargeEA.Config(model = GnnEA.Gcn, k = 3))
    info(s"LargeEA-G: ${g.scores.pretty}")
    assert(g.scores.hits1 > 0.3)
  }
}
