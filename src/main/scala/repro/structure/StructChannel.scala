package repro.structure

import org.apache.spark.sql.SparkSession
import repro.embed.VecOps
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
  * memory-saving O(|Es|)-cells design (we keep top-k per source row).
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
    * @param topK    similarity cells kept per source entity within a batch
    */
  def computeMs(
      spark: SparkSession,
      ds: EaDataset,
      batches: MiniBatches,
      seeds: Array[(Long, Long)],
      cfg: GnnEA.Config,
      topK: Int = 50): SimMatrix = {

    val nS = ds.source.numEntities.toInt
    val nT = ds.target.numEntities.toInt
    val srcTriples = ds.source.triples.collect().map(r =>
      (r.getLong(0).toInt, r.getInt(1), r.getLong(2).toInt))
    val tgtTriples = ds.target.triples.collect().map(r =>
      (r.getLong(0).toInt, r.getInt(1), r.getLong(2).toInt))

    val sc = spark.sparkContext
    val bcSrcT = sc.broadcast(srcTriples)
    val bcTgtT = sc.broadcast(tgtTriples)
    val bcSrcP = sc.broadcast(batches.srcPart)
    val bcTgtP = sc.broadcast(batches.tgtPart)
    val bcSeeds = sc.broadcast(seeds)

    val blocks = sc.parallelize(0 until batches.k, batches.k).map { b =>
      trainBatch(b, nS, nT, bcSrcT.value, bcTgtT.value,
                 bcSrcP.value, bcTgtP.value, bcSeeds.value, cfg, topK)
    }.collect()
    SimMatrix.fromBlocks(spark, nS, nT, blocks)
  }

  /** Mutual nearest neighbours between two embedding sets, excluding
    * already-anchored entities; ties broken by lower index.
    */
  private[structure] def mutualNN(
      hs: Array[Array[Float]], ht: Array[Array[Float]],
      skipS: Set[Int], skipT: Set[Int]): Array[(Int, Int)] = {
    if (hs.isEmpty || ht.isEmpty) return Array.empty
    val bestT = new Array[Int](hs.length)
    var i = 0
    while (i < hs.length) {
      var best = -1; var bestSim = -1.0
      var j = 0
      while (j < ht.length) {
        if (!skipT.contains(j)) {
          val s = VecOps.manhattanSim(hs(i), ht(j))
          if (s > bestSim) { bestSim = s; best = j }
        }
        j += 1
      }
      bestT(i) = best
      i += 1
    }
    val bestS = new Array[Int](ht.length)
    var j = 0
    while (j < ht.length) {
      var best = -1; var bestSim = -1.0
      var i2 = 0
      while (i2 < hs.length) {
        if (!skipS.contains(i2)) {
          val s = VecOps.manhattanSim(hs(i2), ht(j))
          if (s > bestSim) { bestSim = s; best = i2 }
        }
        i2 += 1
      }
      bestS(j) = best
      j += 1
    }
    (0 until hs.length).iterator
      .filter(i => !skipS.contains(i) && bestT(i) >= 0 && bestS(bestT(i)) == i)
      .map(i => (i, bestT(i)))
      .toArray
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
    val srcIds = (0 until nS).filter(srcPart(_) == b).toArray
    val tgtIds = (0 until nT).filter(tgtPart(_) == b).toArray
    if (srcIds.isEmpty || tgtIds.isEmpty) return SimMatrix.Block(Array.empty, Array.empty, Array.empty)
    val srcLocal = srcIds.zipWithIndex.toMap
    val tgtLocal = tgtIds.zipWithIndex.toMap

    // triples fully inside the batch (edges cut by the partition are lost —
    // that is the accuracy cost the name channel recoups)
    val sT = srcTriples.collect {
      case (h, r, t) if srcPart(h) == b && srcPart(t) == b => (srcLocal(h), r, srcLocal(t))
    }
    val tT = tgtTriples.collect {
      case (h, r, t) if tgtPart(h) == b && tgtPart(t) == b => (tgtLocal(h), r, tgtLocal(t))
    }

    // seeds fully inside the batch anchor the two sides to a shared space;
    // the anchor seed id is the pair's index in ψ′, identical on both sides
    val srcAnchors = scala.collection.mutable.Map[Int, Long]()
    val tgtAnchors = scala.collection.mutable.Map[Int, Long]()
    seeds.zipWithIndex.foreach { case ((s, t), i) =>
      val si = s.toInt; val ti = t.toInt
      if (srcPart(si) == b && tgtPart(ti) == b) {
        srcAnchors(srcLocal(si)) = i.toLong
        tgtAnchors(tgtLocal(ti)) = i.toLong
      }
    }

    var hs = GnnEA.embed(srcIds.length, sT, srcAnchors.toMap, cfg, sideSalt = 0xAAAA + b)
    var ht = GnnEA.embed(tgtIds.length, tT, tgtAnchors.toMap, cfg, sideSalt = 0xBBBB + b)

    // Bootstrap self-training (RREA trains iteratively): confident
    // mutual-nearest-neighbour pairs become additional anchors and the
    // propagation is re-run. Anchor ids must not collide with ψ′ indices.
    var round = 0
    while (round < cfg.bootstrapRounds) {
      val newPairs = mutualNN(hs, ht, srcAnchors.keySet.toSet, tgtAnchors.keySet.toSet)
      newPairs.zipWithIndex.foreach { case ((i, j), x) =>
        val id = (1L << 32) * (round + 1) + x
        srcAnchors(i) = id
        tgtAnchors(j) = id
      }
      hs = GnnEA.embed(srcIds.length, sT, srcAnchors.toMap, cfg, sideSalt = 0xAAAA + b)
      ht = GnnEA.embed(tgtIds.length, tT, tgtAnchors.toMap, cfg, sideSalt = 0xBBBB + b)
      round += 1
    }

    // ---- Manhattan similarity rows, top-k per source ------------------------
    // tgtIds ascends, so topK's lower-index tiebreak is a lower-target one
    val k = math.min(topK, tgtIds.length)
    val rows = srcIds.indices.map { i =>
      VecOps.topK(Array.tabulate(tgtIds.length)(j => VecOps.manhattanSim(hs(i), ht(j))), k)
    }
    SimMatrix.Block(srcIds.flatMap(Array.fill(k)(_)),
      rows.flatMap(_.map(c => tgtIds(c._1))).toArray, rows.flatMap(_.map(_._2)).toArray)
  }
}
