package repro.structure

import org.apache.spark.sql.SparkSession
import repro.embed.{L1Targets, VecOps}
import repro.kg.EaDataset
import repro.partition.MiniBatches
import repro.sim.SimMatrix

/** Structure channel (paper §2.2 + Algorithm 1).
  *
  * For each mini-batch B_i = (Gs^i, Gt^i) train the plugged-in EA model
  * *independently* (zero coordination across batches) and emit the
  * Manhattan-similarity rows between the batch's source and target
  * entities. The collected matrix Ms is block-diagonal sparse: entities in
  * different batches have no stored similarity — exactly the paper's
  * memory-saving O(|Es|)-cells design (we keep top-k per source row, found
  * by `VecOps.l1TopK` over the batch's flat target embeddings).
  *
  * The driver cuts every batch once (`cut`) and broadcasts them; each
  * batch is then trained as one Spark task, mirroring the paper's
  * embarrassingly parallel per-batch training.
  */
object StructChannel {

  /** Compute Ms.
    *
    * @param batches mini-batch assignment from METIS-CPS / VPS (k = 1 is the
    *                paper's "w/o partition" setting), one batch id per entity
    *                on each side, else IllegalArgumentException
    * @param seeds   training alignment ψ′ (possibly DA-augmented)
    * @param topK    similarity cells kept per source entity within a batch;
    *                0 keeps no cell, < 0 throws IllegalArgumentException
    */
  def computeMs(
      spark: SparkSession,
      ds: EaDataset,
      batches: MiniBatches,
      seeds: Array[(Long, Long)],
      cfg: GnnEA.Config,
      topK: Int): SimMatrix = {
    require(topK >= 0, s"topK must be >= 0, got $topK")
    val nS = ds.source.numEntities.toInt
    val nT = ds.target.numEntities.toInt
    require(batches.srcPart.length == nS && batches.tgtPart.length == nT,
      s"batches assign ${batches.srcPart.length} x ${batches.tgtPart.length} entities, the dataset has $nS x $nT")

    val sc = spark.sparkContext
    val bc = sc.broadcast(cut(ds, batches, seeds))
    val blocks = sc.parallelize(0 until batches.k, batches.k).map(b => trainBatch(bc.value(b), cfg, topK)).collect()
    SimMatrix.fromBlocks(spark, nS, nT, blocks)
  }

  /** Mini-batch B_b = (Gs^b, Gt^b, ψ′_b) in batch-local ids: `srcIds(i)` is
    * local source entity i's global id (ascending), `srcTriples` the source
    * triples inside the batch, in triple order, as h, r, t interleaved
    * (edges cut by the partition are lost: the accuracy cost the name
    * channel recoups), and `srcAnchors(i)` the index in ψ′ of i's seed, or
    * -1. Likewise for the target side. Every field is a primitive array, so
    * the broadcast of all batches serializes cheaply.
    */
  private[structure] final case class Batch(
      index: Int,
      srcIds: Array[Int], tgtIds: Array[Int],
      srcTriples: Array[Int], tgtTriples: Array[Int],
      srcAnchors: Array[Long], tgtAnchors: Array[Long])

  /** The (h, r, t) triples of a batch side's interleaved `flat` array. */
  private[structure] def triples(flat: Array[Int]): Array[(Int, Int, Int)] =
    Array.tabulate(flat.length / 3)(i => (flat(3 * i), flat(3 * i + 1), flat(3 * i + 2)))

  /** All mini-batches, cut in one pass over each side's entities and triples and one over ψ′. */
  private[structure] def cut(ds: EaDataset, batches: MiniBatches, seeds: Array[(Long, Long)]): Array[Batch] = {
    val k = batches.k
    // per side: each entity's local id, then every part's ids and kept triples
    def side(part: Array[Int], triples: Array[(Int, Int, Int)]) = {
      val sizes = new Array[Int](k)
      val local = new Array[Int](part.length)
      for (e <- part.indices) { local(e) = sizes(part(e)); sizes(part(e)) += 1 }
      val ids = sizes.map(new Array[Int](_))
      for (e <- part.indices) ids(part(e))(local(e)) = e
      val kept = Array.fill(k)(Array.newBuilder[Int])
      for ((h, r, t) <- triples if part(h) == part(t)) kept(part(h)).addOne(local(h)).addOne(r).addOne(local(t))
      (local, ids, kept.map(_.result()), sizes.map(Array.fill(_)(-1L)))
    }
    val (srcPart, tgtPart) = (batches.srcPart, batches.tgtPart)
    val (srcLocal, srcIds, srcTriples, srcAnchors) = side(srcPart, ds.source.triplesArray)
    val (tgtLocal, tgtIds, tgtTriples, tgtAnchors) = side(tgtPart, ds.target.triplesArray)
    // the anchor seed id is the pair's index in ψ′, identical on both sides
    for (((s, t), i) <- seeds.zipWithIndex if srcPart(s.toInt) == tgtPart(t.toInt)) {
      srcAnchors(srcPart(s.toInt))(srcLocal(s.toInt)) = i
      tgtAnchors(tgtPart(t.toInt))(tgtLocal(t.toInt)) = i
    }
    Array.tabulate(k)(b => Batch(b, srcIds(b), tgtIds(b), srcTriples(b), tgtTriples(b), srcAnchors(b), tgtAnchors(b)))
  }

  /** Mutual nearest neighbours between two embedding sets, excluding the
    * entities whose skip flag is set; ties broken by lower index. One pass
    * over the free sources keeps both the row argmax and the column argmax,
    * through the exact L1 pre-filter: a pair is rescored only when its
    * filter value is within the row's cut (`kthCut` at k = 1) or the
    * column's (`thrCol`, the cut of its best score so far), so a skipped
    * pair scores strictly below both and could change neither.
    */
  private[structure] def mutualNN(
      hs: Array[Array[Float]], ht: Array[Array[Float]],
      skipS: Array[Boolean], skipT: Array[Boolean]): Array[(Int, Int)] = {
    val freeT = ht.indices.filterNot(skipT).toArray
    if (hs.isEmpty || freeT.isEmpty) return Array.empty
    val targets = L1Targets(freeT.map(ht), hs)
    val q = new Array[Int](freeT.length)
    val cand = new Array[Int](freeT.length)
    val bestT = Array.fill(hs.length)(-1)      // row argmax, a position in freeT
    val bestS = Array.fill(freeT.length)(-1)   // column argmax over free sources
    val bestSSim = Array.fill(freeT.length)(-1.0)
    val thrCol = Array.fill(freeT.length)(Int.MaxValue)
    for (i <- hs.indices if !skipS(i)) {
      targets.filter(hs(i), q)
      val rowCut = targets.kthCut(q, 1)
      var m = 0
      for (c <- q.indices) if (q(c) <= rowCut || q(c) <= thrCol(c)) { cand(m) = c; m += 1 } // exact path: q = -1
      val sims = new Array[Double](m)
      targets.sims(hs(i), cand, sims)
      var best = -1; var bestSim = -1.0
      for (j <- 0 until m) {
        val c = cand(j); val s = sims(j)
        if (s > bestSim) { bestSim = s; best = c }
        if (s > bestSSim(c)) { bestSSim(c) = s; bestS(c) = i; thrCol(c) = targets.cut(s) }
      }
      bestT(i) = best
    }
    hs.indices.iterator
      .filter(i => !skipS(i) && bestT(i) >= 0 && bestS(bestT(i)) == i)
      .map(i => (i, freeT(bestT(i))))
      .toArray
  }

  /** Train one mini-batch and emit its similarity rows, each in rank order.
    * `batch` is left unchanged: in local mode it is the driver's object.
    */
  private[structure] def trainBatch(batch: Batch, cfg: GnnEA.Config, topK: Int): SimMatrix.Block = {
    val (b, srcIds, tgtIds) = (batch.index, batch.srcIds, batch.tgtIds)
    if (srcIds.isEmpty || tgtIds.isEmpty) return SimMatrix.Block(Array.empty, Array.empty, Array.empty)

    // each side's graph and layer-0 noise are built once and serve every
    // bootstrap round
    val srcAdj = GnnEA.adjacency(srcIds.length, triples(batch.srcTriples), cfg)
    val tgtAdj = GnnEA.adjacency(tgtIds.length, triples(batch.tgtTriples), cfg)
    val srcNoise = GnnEA.noise(srcIds.length, sideSalt = 0xAAAA + b)
    val tgtNoise = GnnEA.noise(tgtIds.length, sideSalt = 0xBBBB + b)

    // seeds inside the batch anchor the two sides to a shared space; the
    // bootstrap rounds add anchors to copies, and -1 marks none
    val srcAnchors = batch.srcAnchors.clone()
    val tgtAnchors = batch.tgtAnchors.clone()

    def embedSrc() = GnnEA.embed(srcAdj, srcAnchors, srcNoise, cfg)
    def embedTgt() = GnnEA.embed(tgtAdj, tgtAnchors, tgtNoise, cfg)
    var hs = embedSrc()
    var ht = embedTgt()

    // Bootstrap self-training (RREA trains iteratively): confident
    // mutual-nearest-neighbour pairs become additional anchors and the
    // propagation is re-run. Anchor ids must not collide with ψ′ indices.
    for (round <- 0 until cfg.bootstrapRounds) {
      mutualNN(hs, ht, srcAnchors.map(_ >= 0), tgtAnchors.map(_ >= 0)).zipWithIndex.foreach { case ((i, j), x) =>
        val id = (1L << 32) * (round + 1) + x
        srcAnchors(i) = id
        tgtAnchors(j) = id
      }
      hs = embedSrc()
      ht = embedTgt()
    }

    // ---- Manhattan similarity rows, top-k per source ------------------------
    // tgtIds ascends, so l1TopK's lower-index tiebreak is a lower-target one
    val targets = L1Targets(ht, hs)
    val rows = hs.map(VecOps.l1TopK(_, targets, topK))
    SimMatrix.Block(srcIds.zip(rows).flatMap { case (s, (t, _)) => Array.fill(t.length)(s) },
      rows.flatMap(_._1.map(t => tgtIds(t))), rows.flatMap(_._2))
  }
}
