package repro.partition

import repro.kg.{EaDataset, Graph}
import scala.util.Random

/** METIS-CPS — the METIS-based collaborative partition strategy (§2.2.1).
  *
  * Workflow (Figure 3 of the paper):
  *  1. Partition the source KG Gs into K subgraphs with METIS (unit weights).
  *  2. For each source subgraph i, let L_t^i be the target entities whose
  *     seed-equivalent lives in subgraph i.
  *  3. *Phase 1 — increasing weight for relevant entities*: pick q = 1 hub
  *     entity per L_t^i (one draw from the seed), add virtual edges
  *     hub↔member where missing, and set every edge of the resulting
  *     connected graph CG^i to `WPrime` (w′ = 1000 ≫ 1), so METIS will not
  *     split L_t^i.
  *  4. *Phase 2 — reducing weight for irrelevant entities*: any original
  *     target edge between seed entities of *different* source subgraphs
  *     gets weight 0, so cutting it is free.
  *  5. Partition the re-weighted target KG with METIS.
  *  6. Pair each source subgraph with the target subgraph sharing the most
  *     seeds (greedy maximal matching on the seed-count matrix).
  *
  * Both METIS calls use `Metis`'s fixed balance bound (1.08 × the average
  * part weight). The batches depend only on the two edge sets, the seed
  * set, `k` and `seed`. Virtual edges exist only inside the partitioner —
  * the KG itself is never modified.
  */
object MetisCps extends PartitionStrategy {
  override val name = "METIS-CPS"

  /** w′, the weight of every edge of a seed group's graph CG^i. */
  private val WPrime = 1000.0

  override def partition(
      ds: EaDataset, k: Int, seeds: Array[(Long, Long)], seed: Long): MiniBatches = {
    val nS = ds.source.numEntities.toInt
    val nT = ds.target.numEntities.toInt
    val rnd = new Random(seed)

    // -- step 1: METIS on the source KG ------------------------------------
    val (su, sv) = ds.source.undirectedEdges
    val gs = Graph.fromEdges(nS, su, sv, Array.fill(su.length)(1.0))
    val srcPart = Metis.partition(gs, k, seed)

    // -- step 2: L_t^i — seed groups on the target side --------------------
    // groupOf(targetEntity) = source subgraph of its seed partner, or -1.
    val groupOf = Array.fill(nT)(-1)
    seeds.foreach { case (s, t) => groupOf(t.toInt) = srcPart(s.toInt) }
    val groups = (0 until nT).filter(groupOf(_) >= 0).groupBy(groupOf)

    // -- steps 3+4: re-weight the target graph ------------------------------
    // hubOf(m) = the hub of m's group, for every member that is not a hub
    val hubOf = Array.fill(nT)(-1)
    for (g <- 0 until k; members <- groups.get(g) if members.length > 1) {
      val hub = members(rnd.nextInt(members.length))
      members.foreach(m => if (m != hub) hubOf(m) = hub)
    }
    // the target edges re-weighted, then the phase 1 virtual edges: the hub
    // reaches every other member with weight w′
    val (tu, tv) = ds.target.undirectedEdges
    val spokes = Array.range(0, nT).filter(hubOf(_) >= 0)
    val us = tu ++ spokes.map(hubOf)
    val vs = tv ++ spokes
    val ws = new Array[Double](us.length)
    for (e <- tu.indices) {
      val u = tu(e); val v = tv(e)
      val gu = groupOf(u); val gv = groupOf(v)
      ws(e) =
        if (hubOf(u) == v || hubOf(v) == u) 0.0  // its virtual edge adds w′
        else if (gu >= 0 && gu == gv) WPrime     // phase 1: inside CG^i
        else if (gu >= 0 && gv >= 0) 0.0         // phase 2: across groups
        else 1.0
    }
    java.util.Arrays.fill(ws, tu.length, ws.length, WPrime)

    // -- step 5: METIS on the re-weighted target graph ----------------------
    val gt = Graph.fromEdges(nT, us, vs, ws)
    val tgtRaw = Metis.partition(gt, k, seed + 1)

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
