package repro.exp

import org.apache.spark.sql.SparkSession
import repro.kg.{EaDataset, KGGen}
import repro.memmodel.MemModel

/** Registry of the six benchmark datasets (lite-scale stand-ins for
  * IDS15K / IDS100K / DBP1M — DESIGN.md §2) plus tiny configs for unit
  * tests.
  *
  * `represented` carries the *paper-scale* entity/triple counts each lite
  * dataset stands for; the analytic memory model is evaluated at that
  * scale so OOM cells land where the paper's do.
  *
  * Per-side triple/entity ratios and EN-vs-L entity ratios follow Table 1
  * of the paper; absolute sizes are scaled down (×10 for IDS, ×100 for
  * DBP1M) to fit a 16-core CPU node.
  */
object Datasets {

  final case class Spec(
      key: String,
      cfg: KGGen.Config,
      k: Int, // paper's mini-batch count for the tier (5 / 10 / 20)
      represented: MemModel.Scale)

  val Ids15kEnFr: Spec = Spec(
    "IDS15K-EN-FR",
    KGGen.Config("IDS15K-EN-FR", "fr",
      nCore = 1500, nSrcExtra = 0, nTgtExtra = 0,
      avgDegBase = 7.2, keepSrc = 0.88, keepTgt = 0.76, privateEdgeFrac = 0.10,
      nRelSrc = 27, nRelTgt = 21, communities = 15,
      pTypo = 0.18, pDrop = 0.25, pReorder = 0.15, seed = 101L),
    k = 5,
    represented = MemModel.Scale(15000, 15000, 47334, 40864))

  val Ids15kEnDe: Spec = Spec(
    "IDS15K-EN-DE",
    KGGen.Config("IDS15K-EN-DE", "de",
      nCore = 1500, nSrcExtra = 0, nTgtExtra = 0,
      avgDegBase = 7.4, keepSrc = 0.86, keepTgt = 0.90, privateEdgeFrac = 0.10,
      nRelSrc = 22, nRelTgt = 13, communities = 15,
      pTypo = 0.18, pDrop = 0.25, pReorder = 0.15, seed = 102L),
    k = 5,
    represented = MemModel.Scale(15000, 15000, 47676, 50419))

  val Ids100kEnFr: Spec = Spec(
    "IDS100K-EN-FR",
    KGGen.Config("IDS100K-EN-FR", "fr",
      nCore = 5000, nSrcExtra = 0, nTgtExtra = 0,
      avgDegBase = 7.0, keepSrc = 0.89, keepTgt = 0.74, privateEdgeFrac = 0.10,
      nRelSrc = 40, nRelTgt = 30, communities = 25,
      pTypo = 0.18, pDrop = 0.25, pReorder = 0.15, seed = 103L),
    k = 10,
    represented = MemModel.Scale(100000, 100000, 309607, 258285))

  val Ids100kEnDe: Spec = Spec(
    "IDS100K-EN-DE",
    KGGen.Config("IDS100K-EN-DE", "de",
      nCore = 5000, nSrcExtra = 0, nTgtExtra = 0,
      avgDegBase = 7.6, keepSrc = 0.88, keepTgt = 0.88, privateEdgeFrac = 0.10,
      nRelSrc = 38, nRelTgt = 20, communities = 25,
      pTypo = 0.18, pDrop = 0.25, pReorder = 0.15, seed = 104L),
    k = 10,
    represented = MemModel.Scale(100000, 100000, 335359, 336240))

  val Dbp1mEnFr: Spec = Spec(
    "DBP1M-EN-FR",
    KGGen.Config("DBP1M-EN-FR", "fr",
      nCore = 6500, nSrcExtra = 5500, nTgtExtra = 2500,
      avgDegBase = 6.4, keepSrc = 0.80, keepTgt = 0.42, privateEdgeFrac = 0.18,
      nRelSrc = 60, nRelTgt = 38, communities = 40, pCross = 0.10,
      pTypo = 0.28, pDrop = 0.40, pReorder = 0.20, seed = 105L),
    k = 20,
    represented = MemModel.Scale(1877793, 1365118, 7031172, 2997457))

  val Dbp1mEnDe: Spec = Spec(
    "DBP1M-EN-DE",
    KGGen.Config("DBP1M-EN-DE", "de",
      nCore = 5500, nSrcExtra = 4500, nTgtExtra = 1500,
      avgDegBase = 6.6, keepSrc = 0.80, keepTgt = 0.36, privateEdgeFrac = 0.18,
      nRelSrc = 60, nRelTgt = 24, communities = 40, pCross = 0.10,
      pTypo = 0.28, pDrop = 0.40, pReorder = 0.20, seed = 106L),
    k = 20,
    represented = MemModel.Scale(1625999, 1112970, 6213639, 1994876))

  val idsSpecs: Seq[Spec] = Seq(Ids15kEnFr, Ids15kEnDe, Ids100kEnFr, Ids100kEnDe)
  val dbpSpecs: Seq[Spec] = Seq(Dbp1mEnFr, Dbp1mEnDe)
  val all: Seq[Spec] = idsSpecs ++ dbpSpecs

  /** A tiny dataset for unit tests: fast, still heterogeneous. */
  def tiny(seed: Long = 9L, langTgt: String = "fr"): KGGen.Config =
    KGGen.Config(s"tiny-$langTgt", langTgt,
      nCore = 300, nSrcExtra = 0, nTgtExtra = 0,
      avgDegBase = 6.0, keepSrc = 0.9, keepTgt = 0.8, privateEdgeFrac = 0.1,
      nRelSrc = 10, nRelTgt = 8, communities = 9,
      pTypo = 0.08, pDrop = 0.15, pReorder = 0.10, seed = seed)

  /** Tiny DBP-style dataset with unknown entities, for unit tests. */
  def tinyWithUnknowns(seed: Long = 19L): KGGen.Config =
    KGGen.Config("tiny-unk", "fr",
      nCore = 250, nSrcExtra = 120, nTgtExtra = 60,
      avgDegBase = 6.0, keepSrc = 0.8, keepTgt = 0.45, privateEdgeFrac = 0.15,
      nRelSrc = 12, nRelTgt = 8, communities = 8,
      pTypo = 0.16, pDrop = 0.28, pReorder = 0.15, seed = seed)

  // Datasets are deterministic in their config; cache per JVM so the many
  // bench tables don't regenerate them.
  private val cache = scala.collection.mutable.LinkedHashMap.empty[String, EaDataset]

  def get(spark: SparkSession, spec: Spec): EaDataset = synchronized {
    cache.getOrElseUpdate(spec.key, KGGen.generate(spark, spec.cfg))
  }
}
