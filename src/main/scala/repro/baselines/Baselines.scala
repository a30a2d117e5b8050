package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.embed.{PseudoBert, VecOps}
import repro.eval.{EaScores, Metrics}
import repro.kg.EaDataset
import repro.name.{Sens, Stns}
import repro.sim.SimMatrix
import repro.structure.{GnnEA, StructChannel}
import repro.partition.MiniBatches

/** Lite re-implementations of the paper's five competitors (§3.1), sharing
  * the same substrates as LargeEA so accuracy/cost comparisons are
  * apples-to-apples. All run *full-graph* (K = 1, no partition) — their
  * scalability failure on large inputs is reproduced by the analytic
  * memory model (repro.memmodel.MemModel), which marks them OOM.
  */
object Baselines {

  final case class RunResult(scores: EaScores, seconds: Double)

  private def timeIt[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Full-graph structure-only run of a GnnEA config (no partition):
    * shared by GCN-Align and RREA.
    */
  private def fullGraphStructure(
      spark: SparkSession, ds: EaDataset, cfg: GnnEA.Config, topK: Int): SimMatrix = {
    val nS = ds.source.numEntities.toInt
    val nT = ds.target.numEntities.toInt
    val whole = MiniBatches(1, Array.fill(nS)(0), Array.fill(nT)(0))
    StructChannel.computeMs(spark, ds, whole, ds.trainPairs, cfg, topK)
  }

  /** GCN-Align (Wang et al. 2018): vanilla GCN over the full graph,
    * structure features only (the variant LargeEA-G builds on).
    */
  def gcnAlign(spark: SparkSession, ds: EaDataset, topK: Int = 50): RunResult = {
    val (sim, sec) = timeIt(fullGraphStructure(spark, ds, GnnEA.Gcn, topK))
    RunResult(Metrics.evaluate(sim, ds.testPairs), sec)
  }

  /** RREA (Mao et al. 2020): relational-reflection GNN over the full graph,
    * structure features only (the variant LargeEA-R builds on).
    */
  def rrea(spark: SparkSession, ds: EaDataset, topK: Int = 50): RunResult = {
    val (sim, sec) = timeIt(fullGraphStructure(spark, ds, GnnEA.Rrea, topK))
    RunResult(Metrics.evaluate(sim, ds.testPairs), sec)
  }

  /** MultiKE (Zhang et al. 2019): multi-view model — a name view and a
    * structure view combined with equal weights. No string channel, no DA.
    */
  def multiKe(spark: SparkSession, ds: EaDataset, topK: Int = 50, dim: Int = 64): RunResult = {
    val (sim, sec) = timeIt {
      val bert = new PseudoBert(ds.lexicon, dim)
      val mse = Sens.similarity(spark, bert.embedAll(ds.source.namesArray),
                                bert.embedAll(ds.target.namesArray), topK)
      fullGraphStructure(spark, ds, GnnEA.Gcn, topK).plus(mse)
    }
    RunResult(Metrics.evaluate(sim, ds.testPairs), sec)
  }

  /** RDGCN (Wu et al. 2019): entity embeddings *initialized from names*,
    * then refined by graph convolution. Lite version: layer-0 features are
    * pseudo-BERT name embeddings instead of seed anchors; propagation and
    * Manhattan scoring as in the shared GNN substrate.
    */
  def rdgcn(spark: SparkSession, ds: EaDataset, topK: Int = 50, dim: Int = 64,
            layers: Int = 2, selfWeight: Float = 2.0f): RunResult = {
    val (sim, sec) = timeIt {
      val bert = new PseudoBert(ds.lexicon, dim)
      val srcH = propagateNameInit(ds, bert, isSource = true, layers, selfWeight)
      val tgtH = propagateNameInit(ds, bert, isSource = false, layers, selfWeight)
      Sens.similarity(spark, srcH, tgtH, topK)
    }
    RunResult(Metrics.evaluate(sim, ds.testPairs), sec)
  }

  /** name-initialized propagation used by RDGCN-lite. */
  private def propagateNameInit(
      ds: EaDataset, bert: PseudoBert, isSource: Boolean,
      layers: Int, selfWeight: Float): Array[Array[Float]] = {
    val kg = if (isSource) ds.source else ds.target
    val n = kg.numEntities.toInt
    val triples = kg.triplesArray
    var h = kg.namesArray.map(bert.embed)
    val deg = new Array[Int](n)
    triples.foreach { case (a, _, b) => if (a != b) { deg(a) += 1; deg(b) += 1 } }
    var l = 0
    while (l < layers) {
      val next = Array.tabulate(n) { e =>
        val acc = new Array[Float](h(e).length)
        VecOps.axpy(acc, selfWeight, h(e))
        acc
      }
      triples.foreach { case (a, _, b) =>
        if (a != b) {
          val w = (1.0 / math.sqrt(math.max(1, deg(a)).toDouble * math.max(1, deg(b)))).toFloat
          VecOps.axpy(next(a), w, h(b))
          VecOps.axpy(next(b), w, h(a))
        }
      }
      next.foreach(VecOps.normalize(_))
      h = next
      l += 1
    }
    h
  }

  /** BERT-INT (Tang et al. 2020): name/side-information only, no graph
    * structure. Lite version: pseudo-BERT semantic top-k candidates,
    * re-scored by a token-level *interaction* (mean over source tokens of
    * the best-matching target token similarity, symmetrized — BERT-INT's
    * interaction map) plus a string-similarity feature. The interaction
    * pass over candidates is what makes it both the accuracy leader and
    * the most expensive name-based method.
    */
  def bertInt(spark: SparkSession, ds: EaDataset, topK: Int = 150, dim: Int = 64): RunResult = {
    val (sim, sec) = timeIt {
      val bert = new PseudoBert(ds.lexicon, dim)
      val srcNames = ds.source.namesArray
      val tgtNames = ds.target.namesArray
      val coarse = Sens.similarity(spark, bert.embedAll(srcNames), bert.embedAll(tgtNames), topK)

      val sc = spark.sparkContext
      val bcBert = sc.broadcast(bert)
      val bcSrc = sc.broadcast(srcNames)
      val bcTgt = sc.broadcast(tgtNames)
      val bcPtr = sc.broadcast(coarse.rowPtr)
      val bcCand = sc.broadcast(coarse.tgt)
      val bcScore = sc.broadcast(coarse.score)

      SimMatrix.tabulate(spark, coarse.numRows, coarse.numCols) { s =>
        val b = bcBert.value
        val sToks = b.tokenize(bcSrc.value(s)).map(b.tokenVector)
        val cells = bcPtr.value(s) until bcPtr.value(s + 1)
        (cells.map(bcCand.value).toArray, cells.map { i =>
          val t = bcCand.value(i)
          val tToks = b.tokenize(bcTgt.value(t)).map(b.tokenVector)
          val inter = interaction(sToks, tToks)
          val strSim = Stns.levenshteinSim(bcSrc.value(s), bcTgt.value(t))
          0.2 * bcScore.value(i) + inter + 0.1 * strSim
        }.toArray)
      }
    }
    RunResult(Metrics.evaluate(sim, ds.testPairs), sec)
  }

  /** Symmetric token-interaction score: for each token on one side, the
    * best Manhattan similarity on the other side; averaged, then the two
    * directions averaged.
    */
  private[baselines] def interaction(
      a: Array[Array[Float]], b: Array[Array[Float]]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    def oneWay(xs: Array[Array[Float]], ys: Array[Array[Float]]): Double =
      xs.map(x => ys.map(y => VecOps.manhattanSim(x, y)).max).sum / xs.length
    (oneWay(a, b) + oneWay(b, a)) / 2.0
  }
}
