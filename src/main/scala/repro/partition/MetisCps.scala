package repro.partition

import repro.kg.EaDataset
import scala.collection.mutable
import scala.util.Random

/** METIS-CPS — the METIS-based collaborative partition strategy (§2.2.1).
  *
  * Workflow (Figure 3 of the paper):
  *  1. Partition the source KG Gs into K subgraphs with METIS (unit weights).
  *  2. For each source subgraph i, let L_t^i be the target entities whose
  *     seed-equivalent lives in subgraph i.
  *  3. *Phase 1 — increasing weight for relevant entities*: pick q (=1)
  *     hub entities per L_t^i, add virtual edges hub↔member where missing,
  *     and reset every edge of the resulting connected graph CG^i to
  *     w′ ≫ 1, so METIS will not split L_t^i.
  *  4. *Phase 2 — reducing weight for irrelevant entities*: any original
  *     target edge between seed entities of *different* source subgraphs
  *     gets weight 0, so cutting it is free.
  *  5. Partition the re-weighted target KG with METIS.
  *  6. Pair each source subgraph with the target subgraph sharing the most
  *     seeds (greedy maximal matching on the seed-count matrix).
  *
  * Virtual edges exist only inside the partitioner — the KG itself is
  * never modified.
  */
final class MetisCps(wPrime: Double = 1000.0, q: Int = 1, imbalance: Double = 1.08)
    extends PartitionStrategy {
  override val name = "METIS-CPS"

  override def partition(
      ds: EaDataset, k: Int, seeds: Array[(Long, Long)], seed: Long): MiniBatches = {
    val nS = ds.source.numEntities.toInt
    val nT = ds.target.numEntities.toInt
    val rnd = new Random(seed)

    // -- step 1: METIS on the source KG ------------------------------------
    val gs = Metis.Graph.fromEdges(nS, ds.source.undirectedEdges.map { case (u, v) => (u, v, 1.0) })
    val srcPart = Metis.partition(gs, k, imbalance, seed)

    // -- step 2: L_t^i — seed groups on the target side --------------------
    // groupOf(targetEntity) = source subgraph of its seed partner, or -1.
    val groupOf = Array.fill(nT)(-1)
    seeds.foreach { case (s, t) => groupOf(t.toInt) = srcPart(s.toInt) }
    val groups: Map[Int, Array[Int]] =
      seeds.map { case (s, t) => (srcPart(s.toInt), t.toInt) }
        .groupBy(_._1).map { case (g, arr) => g -> arr.map(_._2).distinct }

    // -- steps 3+4: re-weight the target graph ------------------------------
    def key(u: Int, v: Int): Long =
      math.min(u, v).toLong * nT + math.max(u, v)

    val weight = mutable.LongMap.empty[Double]
    ds.target.undirectedEdges.foreach { case (u, v) =>
      val gu = groupOf(u); val gv = groupOf(v)
      val w =
        if (gu >= 0 && gu == gv) wPrime                  // phase 1: inside CG^i
        else if (gu >= 0 && gv >= 0 && gu != gv) 0.0     // phase 2: across groups
        else 1.0
      weight(key(u, v)) = w
    }
    // phase 1 virtual edges: q hubs per group reach every other member
    groups.valuesIterator.foreach { members =>
      if (members.length > 1) {
        val hubs = rnd.shuffle(members.toVector).take(math.max(1, q))
        for (h <- hubs; m <- members if m != h) {
          val kk = key(h, m)
          if (!weight.contains(kk) || weight(kk) < wPrime) weight(kk) = wPrime
        }
      }
    }

    // -- step 5: METIS on the re-weighted target graph ----------------------
    val edgeList = weight.iterator.map { case (kk, w) =>
      ((kk / nT).toInt, (kk % nT).toInt, w)
    }.toArray
    val gt = Metis.Graph.fromEdges(nT, edgeList)
    val tgtRaw = Metis.partition(gt, k, imbalance, seed + 1)

    // -- step 6: pair subgraphs by shared seed count -------------------------
    val count = Array.ofDim[Int](k, k)
    seeds.foreach { case (s, t) => count(srcPart(s.toInt))(tgtRaw(t.toInt)) += 1 }
    val mapping = greedyPairing(count, k)
    val tgtPart = tgtRaw.map(mapping)

    MiniBatches(k, srcPart, tgtPart)
  }

  /** Greedy maximal matching: repeatedly take the largest (srcPart, rawTgt)
    * cell; leftover raw target parts map to leftover batch ids.
    */
  private def greedyPairing(count: Array[Array[Int]], k: Int): Array[Int] = {
    val mapping = Array.fill(k)(-1) // rawTgtPart -> batch id (source part id)
    val srcTaken = Array.fill(k)(false)
    val tgtTaken = Array.fill(k)(false)
    var assigned = 0
    while (assigned < k) {
      var bi = -1; var bj = -1; var best = -1
      var i = 0
      while (i < k) {
        if (!srcTaken(i)) {
          var j = 0
          while (j < k) {
            if (!tgtTaken(j) && count(i)(j) > best) { best = count(i)(j); bi = i; bj = j }
            j += 1
          }
        }
        i += 1
      }
      mapping(bj) = bi
      srcTaken(bi) = true; tgtTaken(bj) = true
      assigned += 1
    }
    mapping
  }
}

object MetisCps {
  /** Default instance with the paper's settings (q = 1, w′ ≫ 1). */
  val default = new MetisCps()
}
