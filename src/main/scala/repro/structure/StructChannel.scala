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
  * Batches are processed as Spark tasks (parallelize over batch ids with
  * the triples broadcast), mirroring the paper's embarrassingly parallel
  * per-batch training.
  */
object StructChannel {

  /** Compute Ms.
    *
    * @param batches mini-batch assignment from METIS-CPS / VPS (k = 1
    *                reproduces the paper's "w/o partition" setting)
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
    val sc = spark.sparkContext
    val bcSrcT = sc.broadcast(ds.source.triplesArray)
    val bcTgtT = sc.broadcast(ds.target.triplesArray)
    val bcSrcP = sc.broadcast(batches.srcPart)
    val bcTgtP = sc.broadcast(batches.tgtPart)
    val bcSeeds = sc.broadcast(seeds)

    val blocks = sc.parallelize(0 until batches.k, batches.k).map { b =>
      trainBatch(b, nS, nT, bcSrcT.value, bcTgtT.value,
                 bcSrcP.value, bcTgtP.value, bcSeeds.value, cfg, topK)
    }.collect()
    SimMatrix.fromBlocks(spark, nS, nT, blocks)
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

  /** The ids `e < n` in part `b`, ascending, and each id's batch-local id:
    * its position among them, or -1 outside the batch.
    */
  private def localIds(part: Array[Int], n: Int, b: Int): (Array[Int], Array[Int]) = {
    val local = Array.fill(n)(-1)
    var size = 0
    for (e <- 0 until n) if (part(e) == b) { local(e) = size; size += 1 }
    val ids = new Array[Int](size)
    for (e <- 0 until n) if (local(e) >= 0) ids(local(e)) = e
    (ids, local)
  }

  /** Train one mini-batch and emit its similarity rows, each in rank order. */
  private def trainBatch(
      b: Int, nS: Int, nT: Int,
      srcTriples: Array[(Int, Int, Int)],
      tgtTriples: Array[(Int, Int, Int)],
      srcPart: Array[Int],
      tgtPart: Array[Int],
      seeds: Array[(Long, Long)],
      cfg: GnnEA.Config,
      topK: Int): SimMatrix.Block = {

    // ---- local id spaces for the batch subgraphs ---------------------------
    val (srcIds, srcLocal) = localIds(srcPart, nS, b)
    val (tgtIds, tgtLocal) = localIds(tgtPart, nT, b)
    if (srcIds.isEmpty || tgtIds.isEmpty) return SimMatrix.Block(Array.empty, Array.empty, Array.empty)

    // triples fully inside the batch (edges cut by the partition are lost —
    // that is the accuracy cost the name channel recoups)
    val sT = srcTriples.collect {
      case (h, r, t) if srcLocal(h) >= 0 && srcLocal(t) >= 0 => (srcLocal(h), r, srcLocal(t))
    }
    val tT = tgtTriples.collect {
      case (h, r, t) if tgtLocal(h) >= 0 && tgtLocal(t) >= 0 => (tgtLocal(h), r, tgtLocal(t))
    }

    // each side's graph and layer-0 noise are built once and serve every
    // bootstrap round
    val srcAdj = GnnEA.adjacency(srcIds.length, sT, cfg)
    val tgtAdj = GnnEA.adjacency(tgtIds.length, tT, cfg)
    val srcNoise = GnnEA.noise(srcIds.length, sideSalt = 0xAAAA + b)
    val tgtNoise = GnnEA.noise(tgtIds.length, sideSalt = 0xBBBB + b)

    // seeds fully inside the batch anchor the two sides to a shared space;
    // the anchor seed id is the pair's index in ψ′, identical on both sides,
    // and -1 marks an entity without one
    val srcAnchors = Array.fill(srcIds.length)(-1L)
    val tgtAnchors = Array.fill(tgtIds.length)(-1L)
    for (((s, t), i) <- seeds.zipWithIndex if srcLocal(s.toInt) >= 0 && tgtLocal(t.toInt) >= 0) {
      srcAnchors(srcLocal(s.toInt)) = i
      tgtAnchors(tgtLocal(t.toInt)) = i
    }

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
