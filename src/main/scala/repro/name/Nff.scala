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

  final case class Result(mse: SimMatrix, mst: SimMatrix, mn: SimMatrix)

  /** Compute the fused name similarity matrix for a dataset.
    *
    * @param phi   top-k kept in the semantic matrix (paper φ = 50)
    * @param theta Jaccard lower bound for the string channel (paper 0.5)
    * @param gamma string-channel weight (paper 0.05)
    */
  def compute(
      spark: SparkSession,
      ds: EaDataset,
      phi: Int,
      theta: Double,
      gamma: Double): Result = {
    val srcNames = ds.source.namesArray
    val tgtNames = ds.target.namesArray
    val bert = new PseudoBert(ds.lexicon)
    val srcVecs = bert.embedAll(srcNames)
    val tgtVecs = bert.embedAll(tgtNames)

    val mse = Sens.similarity(spark, srcVecs, tgtVecs, phi)
    val mst = Stns.similarity(spark, srcNames, tgtNames, theta)
    val mn  = mse.plus(mst, gamma)
    Result(mse, mst, mn)
  }
}
