package repro

import repro.embed.VecOps
import org.apache.spark.sql.SparkSession
import repro.exp.Tables
import repro.name.{MinHashLsh, Stns}
import repro.sim.SimMatrix
import repro.structure.GnnEA
import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._
import scala.util.hashing.MurmurHash3

/** The kernels that `VecOps.l1TopK`, the blocked `L1Targets.filter`, the
  * single-pass `StructChannel.mutualNN`, the shared CSR propagation
  * (`Graph.fromTriples` + `GnnEA.layer`), the CSR `Graph.fromEdges`, the
  * primitive `KG.undirectedEdges`, the one-pass `StructChannel.cut`, the
  * one grid renderer of `Tables`, the folded `MinHashLsh.signature`, the
  * sorted-band `Stns.similarity` and the rank-order `SimMatrix.plus`
  * replaced, kept verbatim as references for the equivalence properties.
  *
  * The graph kernels here still take the triples as `(h, r, t)` tuples and
  * return edges as `(u, v)` pairs, the program's format before triples
  * became one interleaved `Int` array and edges two `Int` arrays. So they
  * also stand for the tuple-based forms of the kernels they check:
  * `batch` for `StructChannel.cut` and its `StructChannel.triples`
  * unpacking, `undirectedEdges` for the pair-returning
  * `KG.undirectedEdges`, `gnnEmbed` for `GnnEA.adjacency` with its
  * `groupMapReduce` relation count over tuples (and `Graph.fromTriples`
  * over tuples), and `rdgcnPropagate` for `Baselines.rdgcnPropagate` over
  * tuples. The properties convert a tuple input with `TestGraphs.flat`.
  */
object ReferenceKernels {

  /** The former `StructChannel.localIds`, verbatim: the ids `e < n` in
    * part `b`, ascending, and each id's batch-local id: its position among
    * them, or -1 outside the batch.
    */
  def localIds(part: Array[Int], n: Int, b: Int): (Array[Int], Array[Int]) = {
    val local = Array.fill(n)(-1)
    var size = 0
    for (e <- 0 until n) if (part(e) == b) { local(e) = size; size += 1 }
    val ids = new Array[Int](size)
    for (e <- 0 until n) if (local(e) >= 0) ids(local(e)) = e
    (ids, local)
  }

  /** The former per-task cut of batch `b` in `StructChannel.trainBatch`,
    * which scanned every entity, triple and seed of the dataset. Verbatim
    * but for returning (srcIds, tgtIds, srcTriples, tgtTriples, srcAnchors,
    * tgtAnchors) instead of training on them, and for not stopping early
    * when one side is empty.
    */
  def batch(
      b: Int, nS: Int, nT: Int,
      srcTriples: Array[(Int, Int, Int)],
      tgtTriples: Array[(Int, Int, Int)],
      srcPart: Array[Int],
      tgtPart: Array[Int],
      seeds: Array[(Long, Long)])
      : (Array[Int], Array[Int], Array[(Int, Int, Int)], Array[(Int, Int, Int)], Array[Long], Array[Long]) = {
    val (srcIds, srcLocal) = localIds(srcPart, nS, b)
    val (tgtIds, tgtLocal) = localIds(tgtPart, nT, b)
    val sT = srcTriples.collect {
      case (h, r, t) if srcLocal(h) >= 0 && srcLocal(t) >= 0 => (srcLocal(h), r, srcLocal(t))
    }
    val tT = tgtTriples.collect {
      case (h, r, t) if tgtLocal(h) >= 0 && tgtLocal(t) >= 0 => (tgtLocal(h), r, tgtLocal(t))
    }
    val srcAnchors = Array.fill(srcIds.length)(-1L)
    val tgtAnchors = Array.fill(tgtIds.length)(-1L)
    for (((s, t), i) <- seeds.zipWithIndex if srcLocal(s.toInt) >= 0 && tgtLocal(t.toInt) >= 0) {
      srcAnchors(srcLocal(s.toInt)) = i
      tgtAnchors(tgtLocal(t.toInt)) = i
    }
    (srcIds, tgtIds, sT, tT, srcAnchors, tgtAnchors)
  }

  /** The former `Metis.Graph.fromEdges`, which built per-vertex neighbour
    * and weight arrays. Verbatim but for returning those two arrays instead
    * of the deleted `Metis.Graph` with its vertex weights.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)]): (Array[Array[Int]], Array[Array[Double]]) = {
    def key(u: Int, v: Int): Long = u.toLong << 32 | v
    // both ends of every edge as (vertex, neighbour) keys, sorted and deduplicated
    val both = new mutable.ArrayBuilder.ofLong
    edges.foreach { case (u, v, _) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u, $v) has an endpoint outside [0, $n)")
      if (u != v) { both += key(u, v); both += key(v, u) }
    }
    val sorted = both.result()
    java.util.Arrays.sort(sorted)
    var m = 0
    sorted.foreach(e => if (m == 0 || sorted(m - 1) != e) { sorted(m) = e; m += 1 })
    val keys = java.util.Arrays.copyOf(sorted, m)
    val sums = new Array[Double](m)
    edges.foreach { case (u, v, w) =>
      if (u != v) {
        sums(java.util.Arrays.binarySearch(keys, key(u, v))) += w
        sums(java.util.Arrays.binarySearch(keys, key(v, u))) += w
      }
    }
    // keys(start(u) until start(u + 1)) are the neighbours of u
    val start = new Array[Int](n + 1)
    keys.foreach(e => start((e >>> 32).toInt + 1) += 1)
    (0 until n).foreach(u => start(u + 1) += start(u))
    (Array.tabulate(n)(u => keys.slice(start(u), start(u + 1)).map(_.toInt)),
      Array.tabulate(n)(u => sums.slice(start(u), start(u + 1))))
  }

  /** The former `KG.undirectedEdges`, verbatim but for taking the triples
    * as an argument instead of reading `triplesArray`.
    */
  def undirectedEdges(triplesArray: Array[(Int, Int, Int)]): Array[(Int, Int)] =
    triplesArray
      .collect { case (h, _, t) if h != t => math.min(h, t).toLong << 32 | math.max(h, t) }
      .distinct.sorted
      .map(e => ((e >>> 32).toInt, e.toInt))

  /** The former `GnnEA.embed`: a boxed per-vertex adjacency built on every
    * call, gathered over per layer. Verbatim but for the constants that
    * left `GnnEA.Config` (`dim` = 48, `selfWeight` = 1, `noiseEps` = 0.02).
    */
  def gnnEmbed(
      n: Int,
      triples: Array[(Int, Int, Int)],
      anchors: Map[Int, Long],
      cfg: GnnEA.Config,
      sideSalt: Long): Array[Array[Float]] = {
    val dim = 48; val selfWeight = 1.0f; val noiseEps = 0.02f

    // ---- adjacency with relation weights (undirected propagation) --------
    val relFreq = mutable.LongMap.empty[Int]
    triples.foreach { case (_, r, _) => relFreq(r.toLong) = relFreq.getOrElse(r.toLong, 0) + 1 }
    def relW(r: Int): Float =
      if (cfg.relWeighted) (1.0 / math.log(2.0 + relFreq(r.toLong))).toFloat else 1.0f

    val deg = new Array[Int](n)
    triples.foreach { case (h, _, t) => if (h != t) { deg(h) += 1; deg(t) += 1 } }

    val adjN = Array.fill(n)(new mutable.ArrayBuffer[Int]())
    val adjW = Array.fill(n)(new mutable.ArrayBuffer[Float]())
    triples.foreach { case (h, r, t) =>
      if (h != t) {
        val w = relW(r) / math.sqrt(math.max(1, deg(h)).toDouble * math.max(1, deg(t))).toFloat
        adjN(h) += t; adjW(h) += w
        adjN(t) += h; adjW(t) += w
      }
    }

    // ---- layer 0: anchors + tiny deterministic noise ----------------------
    var h = Array.tabulate(n) { e =>
      val noise = VecOps.hashGaussian(sideSalt ^ (e * 0x7f4a7c15L + 0x1234), dim)
      anchors.get(e) match {
        case Some(seedId) =>
          val v = VecOps.hashGaussian(0x51ed270b ^ seedId * 0x9e3779b9L, dim)
          VecOps.axpy(v, noiseEps, noise)
          VecOps.normalize(v)
        case None =>
          VecOps.normalize(noise)
          noise.map(x => x * noiseEps)
      }
    }
    val layerOutputs = mutable.ArrayBuffer[Array[Array[Float]]]()
    if (cfg.concatLayers) layerOutputs += h

    // ---- propagation -------------------------------------------------------
    var l = 0
    while (l < cfg.layers) {
      val next = new Array[Array[Float]](n)
      var e = 0
      while (e < n) {
        val acc = new Array[Float](dim)
        VecOps.axpy(acc, selfWeight, h(e))
        val ns = adjN(e); val ws = adjW(e)
        var j = 0
        while (j < ns.length) { VecOps.axpy(acc, ws(j), h(ns(j))); j += 1 }
        next(e) = VecOps.capNorm(acc)
        e += 1
      }
      h = next
      if (cfg.concatLayers) layerOutputs += h
      l += 1
    }

    // ---- output: concat layers (RREA) or final layer (GCN), unit-norm ----
    if (!cfg.concatLayers) h.map(v => VecOps.normalize(v.clone()))
    else {
      val parts = layerOutputs.toArray
      Array.tabulate(n) { e =>
        val out = new Array[Float](dim * parts.length)
        var p = 0
        while (p < parts.length) {
          System.arraycopy(parts(p)(e), 0, out, p * dim, dim)
          p += 1
        }
        VecOps.normalize(out)
      }
    }
  }

  /** The former RDGCN-lite propagation: per layer, a scatter over the
    * triples from the name-initialized `h0`. Verbatim but for taking the
    * graph and `h0` directly instead of reading them from a dataset.
    */
  def rdgcnPropagate(
      n: Int, triples: Array[(Int, Int, Int)], h0: Array[Array[Float]],
      layers: Int, selfWeight: Float): Array[Array[Float]] = {
    var h = h0
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

  /** The former SENS row loop: a boxed `java.util.PriorityQueue` over
    * (sim, tgt), fed segment by segment. Needs k >= 1.
    */
  def sensRow(sv: Array[Float], tv: Array[Array[Float]], k: Int, segments: Int = 4): Array[(Int, Double)] = {
    val s = math.max(1, segments)
    val segs = Array.tabulate(s) { i =>
      ((tv.length.toLong * i / s).toInt, (tv.length.toLong * (i + 1) / s).toInt)
    }.filter { case (lo, hi) => hi > lo }
    val heap = new java.util.PriorityQueue[(Double, Int)](
      math.max(1, k),
      (a: (Double, Int), b: (Double, Int)) =>
        if (a._1 != b._1) java.lang.Double.compare(a._1, b._1)
        else Integer.compare(b._2, a._2)) // higher id = worse on ties
    for ((lo, hi) <- segs) {
      var t = lo
      while (t < hi) {
        val sim = VecOps.manhattanSim(sv, tv(t))
        if (heap.size < k) heap.add((sim, t))
        else {
          val worst = heap.peek()
          if (sim > worst._1 || (sim == worst._1 && t < worst._2)) {
            heap.poll(); heap.add((sim, t))
          }
        }
        t += 1
      }
    }
    Array.fill(heap.size)(heap.poll()).reverse.map { case (sim, t) => (t, sim) }
  }

  /** The former row-major `L1Targets.filter`, verbatim but for taking the
    * row's `Int` copy (None on the exact path), the targets' `Int` copies
    * laid end to end and their exact-path flags, and returning `out`.
    */
  def l1Filter(row: Option[Array[Int]], qFlat: Array[Int], exact: Array[Boolean], dim: Int): Array[Int] = {
    val n = exact.length
    val out = new Array[Int](n)
    if (dim == 0 || row.isEmpty) { java.util.Arrays.fill(out, 0, n, -1); return out }
    val qr = row.get
    var t = 0
    while (t < n) {
      if (exact(t)) out(t) = -1
      else {
        val o = t * dim
        var s = 0
        var d = 0
        while (d < dim) { s += math.abs(qr(d) - qFlat(o + d)); d += 1 }
        out(t) = s
      }
      t += 1
    }
    out
  }

  /** The former two-pass mutual nearest neighbours: every pair is scored
    * once for the row argmax and again for the column argmax.
    */
  def mutualNN(
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

  /** The former `Tables.renderTable1`, verbatim. */
  def renderTable1(rows: Seq[Tables.Table1Row]): String = {
    val header = f"${"Dataset"}%-16s ${"#Entities"}%-16s ${"#Relations"}%-12s ${"#Triples"}%-16s"
    val body = rows.map { r =>
      f"${r.dataset}%-16s ${s"${r.srcEnts}-${r.tgtEnts}"}%-16s ${s"${r.srcRels}-${r.tgtRels}"}%-12s ${s"${r.srcTriples}-${r.tgtTriples}"}%-16s"
    }
    (header +: body).mkString("\n")
  }

  /** The former `Tables.renderEaRows`, verbatim. */
  def renderEaRows(rows: Seq[Tables.EaRow]): String = {
    val header = f"${"Dataset"}%-16s ${"Method"}%-22s ${"H@1"}%6s ${"H@5"}%6s ${"MRR"}%6s ${"Time(s)"}%9s ${"Mem."}%8s"
    val body = rows.map { r =>
      if (r.oom)
        f"${r.dataset}%-16s ${r.method}%-22s ${"-"}%6s ${"-"}%6s ${"-"}%6s ${"-"}%9s ${"-"}%8s"
      else
        f"${r.dataset}%-16s ${r.method}%-22s ${r.h1 * 100}%6.1f ${r.h5 * 100}%6.1f ${r.mrr}%6.2f ${r.seconds}%9.1f ${r.mem}%8s"
    }
    (header +: body).mkString("\n")
  }

  /** The former `Tables.renderTable5`, verbatim. */
  def renderTable5(rows: Seq[Tables.Table5Row]): String = {
    val header = f"${"Dataset"}%-16s ${"Method"}%-10s ${"Dir"}%-7s ${"Total"}%7s ${"Train"}%7s ${"Test"}%7s"
    val body = rows.map { r =>
      f"${r.dataset}%-16s ${r.method}%-10s ${r.direction}%-7s ${r.total * 100}%7.1f ${r.train * 100}%7.1f ${r.test * 100}%7.1f"
    }
    (header +: body).mkString("\n")
  }

  /** The former `Tables.renderTable6`, verbatim. */
  def renderTable6(rows: Seq[Tables.Table6Row]): String = {
    val header = f"${"Dataset"}%-16s ${"Setting"}%-8s ${"NameCh"}%8s ${"LargeEA-R"}%14s ${"LargeEA-G"}%14s"
    val body = rows.map { r =>
      f"${r.dataset}%-16s ${r.setting}%-8s ${r.nameChannel}%8s ${r.structR}%14s ${r.structG}%14s"
    }
    (header +: body).mkString("\n")
  }

  private final val MinHashSeed = 0x2f17
  private val P = 2147483647L // 2^31 - 1, Mersenne prime
  private val as: Array[Long] = {
    val r = new scala.util.Random(MinHashSeed)
    Array.fill(MinHashLsh.NumPerm)(1L + r.nextInt((P - 1).toInt))
  }
  private val bs: Array[Long] = {
    val r = new scala.util.Random(MinHashSeed + 1)
    Array.fill(MinHashLsh.NumPerm)(r.nextInt(P.toInt).toLong)
  }

  /** The former `MinHashLsh.shingles`, verbatim. */
  def shingles(s: String): Set[Int] = {
    val t = s.toLowerCase.replaceAll("\\s+", " ").trim
    if (t.length < 3) Set(MurmurHash3.stringHash(t, MinHashSeed))
    else (0 to t.length - 3).map(i => MurmurHash3.stringHash(t.substring(i, i + 3), MinHashSeed)).toSet
  }

  /** The former `MinHashLsh.signature`, verbatim: two `Long` remainders per
    * shingle and permutation, over the deduplicated shingle set.
    */
  def signature(s: String): Array[Int] = {
    val sh = shingles(s)
    val sig = Array.fill(MinHashLsh.NumPerm)(Int.MaxValue)
    sh.foreach { g =>
      val x = (g.toLong & 0xffffffffL) % P
      var i = 0
      while (i < MinHashLsh.NumPerm) {
        val h = ((as(i) * x + bs(i)) % P).toInt
        if (h < sig(i)) sig(i) = h
        i += 1
      }
    }
    sig
  }

  /** The former `Stns.similarity`, verbatim but for the reference
    * `signature`: one driver-side `LongMap` of bucket lists and a boxed
    * `distinct` per source.
    */
  def stns(spark: SparkSession, srcNames: Array[String], tgtNames: Array[String], theta: Double): SimMatrix = {
    val srcSig = srcNames.par.map(signature).toArray
    val tgtSig = tgtNames.par.map(signature).toArray
    val buckets = scala.collection.mutable.LongMap.empty[List[Int]]
    for (t <- tgtSig.indices; k <- MinHashLsh.bandKeys(tgtSig(t))) buckets(k) = t :: buckets.getOrElse(k, Nil)
    val cells = for {
      s <- srcSig.indices.par
      t <- MinHashLsh.bandKeys(srcSig(s)).flatMap(buckets.getOrElse(_, Nil)).distinct
      if MinHashLsh.estJaccard(srcSig(s), tgtSig(t)) >= theta
    } yield (s.toLong, t.toLong, Stns.levenshteinSim(srcNames(s), tgtNames(t)))
    SimMatrix.fromLocal(spark, cells.seq, srcNames.length, tgtNames.length)
  }

  /** The former `SimMatrix.plus` (`a + weight·other`), verbatim but for
    * reading `a`'s fields: each row as "a's cells, then other's", with a NaN
    * sentinel for "no cell", re-sorted by `fromBlocks`.
    */
  def plus(a: SimMatrix, other: SimMatrix, weight: Double): SimMatrix = {
    import a.{numRows, numCols, rowPtr, tgt, score}
    val nR = math.max(numRows, other.numRows)
    val src = new Array[Int](a.nnz.toInt + other.tgt.length)
    val tgtOut = new Array[Int](src.length)
    val scoreOut = new Array[Double](src.length)
    var n = 0
    val b = Array.fill(math.max(numCols, other.numCols))(Double.NaN) // weight·other's row s; NaN: no cell
    var s = 0
    while (s < nR) {
      val (from, until) = if (s < numRows) (rowPtr(s), rowPtr(s + 1)) else (0, 0)
      val (oFrom, oUntil) = if (s < other.numRows) (other.rowPtr(s), other.rowPtr(s + 1)) else (0, 0)
      var i = oFrom
      while (i < oUntil) { b(other.tgt(i)) = weight * other.score(i); i += 1 }
      i = from
      while (i < until) {
        val t = tgt(i)
        src(n) = s; tgtOut(n) = t; scoreOut(n) = if (b(t).isNaN) score(i) else score(i) + b(t)
        b(t) = Double.NaN; n += 1; i += 1
      }
      i = oFrom
      while (i < oUntil) {
        val t = other.tgt(i)
        if (!b(t).isNaN) { src(n) = s; tgtOut(n) = t; scoreOut(n) = b(t); b(t) = Double.NaN; n += 1 }
        i += 1
      }
      s += 1
    }
    SimMatrix.fromBlocks(a.spark, nR, b.length, Seq(SimMatrix.Block(
      java.util.Arrays.copyOf(src, n), java.util.Arrays.copyOf(tgtOut, n), java.util.Arrays.copyOf(scoreOut, n))))
  }
}
