package repro.largeea

import org.apache.spark.sql.SparkSession
import repro.eval.{EaScores, Metrics}
import repro.kg.EaDataset
import repro.name.{DataAug, Nff}
import repro.partition.{MetisCps, MiniBatches, PartitionStrategy}
import repro.sim.SimMatrix
import repro.structure.{GnnEA, StructChannel}

/** The LargeEA framework (paper Figure 2): structure channel + name
  * channel + name-based data augmentation + channel fusion M = Ms + Mn.
  */
object LargeEA {

  /** Pipeline configuration (paper defaults from §3.1). */
  final case class Config(
      model: GnnEA.Config = GnnEA.Rrea,
      k: Int = 5,
      strategy: PartitionStrategy = MetisCps,
      useNameChannel: Boolean = true,
      useDataAug: Boolean = true,
      useStructChannel: Boolean = true,
      unsupervised: Boolean = false, // §3.5: seeds come from DA only
      seed: Long = 7L) {
    // The paper's fixed φ/θ/γ, read here by the benchmark harness.
    def phi: Int = Nff.Phi
    def theta: Double = Nff.Theta
    def gamma: Double = Nff.Gamma
  }

  /** Everything a table row needs. */
  final case class Result(
      scores: EaScores,
      structOnly: Option[EaScores],
      nameOnly: Option[EaScores],
      batches: Option[MiniBatches],
      pseudoSeeds: Array[(Long, Long)], // sorted by source id
      pseudoSeedPrecision: Double,
      seedsUsed: Int,
      fused: SimMatrix,
      timings: Map[String, Double]) { // seconds per phase
    def pseudoSeedCount: Int = pseudoSeeds.length
  }

  /** Run LargeEA end to end on a dataset. */
  def run(spark: SparkSession, ds: EaDataset, cfg: Config): Result = {
    val timings = scala.collection.mutable.Map[String, Double]()
    def timed[T](key: String)(f: => T): T = {
      val t0 = System.nanoTime()
      val r = f
      timings(key) = timings.getOrElse(key, 0.0) + (System.nanoTime() - t0) / 1e9
      r
    }

    val trainSeeds = ds.trainPairs
    val truth = ds.truthPairs

    // ---- name channel ------------------------------------------------------
    val nameMn: Option[SimMatrix] =
      if (cfg.useNameChannel || cfg.useDataAug || cfg.unsupervised)
        Some(timed("name")(Nff.compute(spark, ds).mn))
      else None

    // ---- data augmentation -------------------------------------------------
    val (pseudo, seeds): (Array[(Long, Long)], Array[(Long, Long)]) =
      nameMn match {
        case Some(mn) if cfg.useDataAug || cfg.unsupervised =>
          val p = timed("dataAug")(DataAug.pseudoSeedPairs(mn))
          val merged =
            if (cfg.unsupervised) p
            else DataAug.mergeSeeds(trainSeeds, p)
          (p, merged)
        case _ => (Array.empty[(Long, Long)], trainSeeds)
      }
    val pseudoPrecision = DataAug.precision(pseudo, truth)

    // ---- structure channel -------------------------------------------------
    var batchesOpt: Option[MiniBatches] = None
    val ms: Option[SimMatrix] =
      if (cfg.useStructChannel) {
        val batches = timed("partition") {
          cfg.strategy.partition(ds, cfg.k, seeds, cfg.seed)
        }
        batchesOpt = Some(batches)
        Some(timed("structTrain") {
          StructChannel.computeMs(spark, ds, batches, seeds, cfg.model, Nff.Phi)
        })
      } else None

    // ---- channel fusion ----------------------------------------------------
    val mn = nameMn.filter(_ => cfg.useNameChannel)
    val fused: SimMatrix = (ms, mn) match {
      case (Some(a), Some(b)) => timed("fusion")(a.plus(b))
      case (Some(a), None)    => a
      case (None, Some(b))    => b
      case (None, None)       => SimMatrix.empty(spark)
    }

    // ---- evaluation ---------------------------------------------------------
    val (scores, structOnly, nameOnly) = timed("eval") {
      val test = ds.testPairs
      (Metrics.evaluate(fused, test), ms.map(Metrics.evaluate(_, test)), mn.map(Metrics.evaluate(_, test)))
    }

    Result(
      scores = scores,
      structOnly = structOnly,
      nameOnly = nameOnly,
      batches = batchesOpt,
      pseudoSeeds = pseudo,
      pseudoSeedPrecision = pseudoPrecision,
      seedsUsed = seeds.length,
      fused = fused,
      timings = timings.toMap)
  }
}
