package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.embed.{PseudoBert, VecOps}
import repro.kg.{EaDataset, Graph, KG}
import repro.name.{Nff, Sens, Stns}
import repro.sim.SimMatrix
import repro.structure.{GnnEA, StructChannel}
import repro.partition.MiniBatches

/** Lite re-implementations of the paper's five competitors (§3.1), sharing
  * the same substrates as LargeEA so accuracy/cost comparisons are
  * apples-to-apples. All run *full-graph* (K = 1, no partition) — their
  * scalability failure on large inputs is reproduced by the analytic
  * memory model (repro.memmodel.MemModel), which marks them OOM. Each
  * returns the similarity matrix it builds; `repro.exp.Tables` times and
  * scores it.
  */
object Baselines {

  private val BertIntTopK = 150  // BERT-INT's coarse candidates, re-scored by interaction
  private val RdgcnLayers = 2
  private val RdgcnSelfWeight = 2.0f // RDGCN-lite's weight of a vertex's own vector

  /** Full-graph structure-only run of a GnnEA config (no partition):
    * shared by GCN-Align and RREA.
    */
  private def fullGraphStructure(
      spark: SparkSession, ds: EaDataset, cfg: GnnEA.Config): SimMatrix = {
    val nS = ds.source.numEntities.toInt
    val nT = ds.target.numEntities.toInt
    val whole = MiniBatches(1, Array.fill(nS)(0), Array.fill(nT)(0))
    StructChannel.computeMs(spark, ds, whole, ds.trainPairs, cfg, Nff.Phi)
  }

  /** GCN-Align (Wang et al. 2018): vanilla GCN over the full graph,
    * structure features only (the variant LargeEA-G builds on).
    */
  def gcnAlign(spark: SparkSession, ds: EaDataset): SimMatrix = fullGraphStructure(spark, ds, GnnEA.Gcn)

  /** RREA (Mao et al. 2020): relational-reflection GNN over the full graph,
    * structure features only (the variant LargeEA-R builds on).
    */
  def rrea(spark: SparkSession, ds: EaDataset): SimMatrix = fullGraphStructure(spark, ds, GnnEA.Rrea)

  /** MultiKE (Zhang et al. 2019): multi-view model — a name view and a
    * structure view combined with equal weights. No string channel, no DA.
    */
  def multiKe(spark: SparkSession, ds: EaDataset): SimMatrix = {
    val bert = new PseudoBert(ds.lexicon)
    val mse = Sens.similarity(spark, bert.embedAll(ds.source.namesArray),
                              bert.embedAll(ds.target.namesArray), Nff.Phi)
    fullGraphStructure(spark, ds, GnnEA.Gcn).plus(mse)
  }

  /** RDGCN (Wu et al. 2019): entity embeddings *initialized from names*,
    * then refined by graph convolution. Lite version: layer-0 features are
    * pseudo-BERT name embeddings instead of seed anchors; each layer is the
    * shared GNN step `GnnEA.layer`, unit-normalized, with plain degree
    * weights 1/√(d_h·d_t); Manhattan scoring as in SENS.
    */
  def rdgcn(spark: SparkSession, ds: EaDataset): SimMatrix = {
    val bert = new PseudoBert(ds.lexicon)
    def embed(kg: KG) = rdgcnPropagate(bert.embedAll(kg.namesArray), kg.triplesArray)
    Sens.similarity(spark, embed(ds.source), embed(ds.target), Nff.Phi)
  }

  /** RDGCN-lite's layers over one KG's `triples`, from the name embeddings `h0`. */
  private[baselines] def rdgcnPropagate(
      h0: Array[Array[Float]], triples: Array[Int]): Array[Array[Float]] = {
    val adj = Graph.fromTriples(h0.length, triples)((_, norm) => (1.0 / norm).toFloat)
    (1 to RdgcnLayers).foldLeft(h0)((h, _) => GnnEA.layer(adj, h, RdgcnSelfWeight).map(VecOps.normalize(_)))
  }

  /** BERT-INT (Tang et al. 2020): name/side-information only, no graph
    * structure. Lite version: pseudo-BERT semantic top-k candidates,
    * re-scored by a token-level *interaction* (mean over source tokens of
    * the best-matching target token similarity, symmetrized — BERT-INT's
    * interaction map) plus a string-similarity feature. The interaction
    * pass over candidates is what makes it both the accuracy leader and
    * the most expensive name-based method.
    */
  def bertInt(spark: SparkSession, ds: EaDataset): SimMatrix = {
    val bert = new PseudoBert(ds.lexicon)
    val srcNames = ds.source.namesArray
    val tgtNames = ds.target.namesArray
    val coarse = Sens.similarity(spark, bert.embedAll(srcNames), bert.embedAll(tgtNames), BertIntTopK)
    val bc = spark.sparkContext.broadcast((bert, srcNames, tgtNames, coarse.rowPtr, coarse.tgt, coarse.score))

    SimMatrix.tabulate(spark, coarse.numRows, coarse.numCols) { s =>
      val (b, srcs, tgts, ptr, cand, score) = bc.value
      val sToks = b.tokenize(srcs(s)).map(b.tokenVector)
      val cells = ptr(s) until ptr(s + 1)
      (cells.map(cand).toArray, cells.map { i =>
        val t = cand(i)
        val tToks = b.tokenize(tgts(t)).map(b.tokenVector)
        val inter = interaction(sToks, tToks)
        val strSim = Stns.levenshteinSim(srcs(s), tgts(t))
        0.2 * score(i) + inter + 0.1 * strSim
      }.toArray)
    }
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
