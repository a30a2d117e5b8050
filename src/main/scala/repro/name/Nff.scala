package repro.name

import org.apache.spark.sql.SparkSession
import repro.embed.PseudoBert
import repro.kg.EaDataset
import repro.sim.SimMatrix

/** NFF — name feature fusion (paper §2.3): Mn = Mse + γ·Mst.
  *
  * γ ∈ (0,1] weights the string similarity; the paper sets γ = 0.05
  * because semantic features dominate in entity matching.
  */
object Nff {

  /** The paper's fixed name-channel parameters (§3.1). */
  val Phi = 50       // top-k kept per source row: `Mse`, `Ms` and the baselines
  val Theta = 0.5    // Jaccard lower bound for the string channel
  val Gamma = 0.05   // string-channel weight

  final case class Result(mse: SimMatrix, mst: SimMatrix, mn: SimMatrix)

  /** Compute the fused name similarity matrix for a dataset. */
  def compute(spark: SparkSession, ds: EaDataset): Result = {
    val srcNames = ds.source.namesArray
    val tgtNames = ds.target.namesArray
    val bert = new PseudoBert(ds.lexicon)
    val srcVecs = bert.embedAll(srcNames)
    val tgtVecs = bert.embedAll(tgtNames)

    val mse = Sens.similarity(spark, srcVecs, tgtVecs, Phi)
    val mst = Stns.similarity(spark, srcNames, tgtNames, Theta)
    val mn  = mse.plus(mst, Gamma)
    Result(mse, mst, mn)
  }
}
