package repro.kg

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic cross-lingual EA benchmark generator.
  *
  * Stands in for the paper's IDS15K / IDS100K / DBP1M datasets (DBpedia
  * extracts we cannot download offline). The generator reproduces the
  * properties the LargeEA pipeline is sensitive to:
  *
  *  - a *core* of 1-to-1 aligned entities shared by both KGs, plus
  *    (for DBP1M-lite) per-side *unknown* entities with >= 5 aligned
  *    neighbours, as in the paper's benchmark construction;
  *  - heterogeneous structure: one preferential-attachment base graph,
  *    independently subsampled per side with different keep rates, plus
  *    side-private edges — so the two KGs are partially isomorphic only;
  *  - names: token sequences; the target side renders each token through a
  *    deterministic pseudo-translation, with typo / drop / reorder noise so
  *    both semantic (token-level) and string (character-level) similarity
  *    are informative but imperfect;
  *  - a token `lexicon` (translated surface -> English surface) exported as
  *    the stand-in for multilingual-BERT pretraining (DESIGN.md §2).
  */
object KGGen {

  /** Generator parameters for one dataset. */
  final case class Config(
      name: String,
      langTgt: String,            // "fr" | "de"
      nCore: Int,                 // aligned entity pairs (= |ground truth|)
      nSrcExtra: Int,             // unknown entities injected into the source KG
      nTgtExtra: Int,             // unknown entities injected into the target KG
      avgDegBase: Double,         // mean degree of the shared base graph
      keepSrc: Double,            // base-edge keep probability, source side
      keepTgt: Double,            // base-edge keep probability, target side
      privateEdgeFrac: Double,    // extra side-private edges, as a fraction of kept
      nRelSrc: Int,
      nRelTgt: Int,
      communities: Int = 12,      // latent topical clusters in the base graph
      pCross: Double = 0.08,      // fraction of cross-community base edges
      pTypo: Double,              // per-token character-typo probability (target side)
      pDrop: Double,              // per-token drop probability (target side)
      pReorder: Double,           // name token-reorder probability (target side)
      seedRatio: Double = 0.20,   // paper: 20 % of truth as training seeds
      seed: Long = 42L)

  /** One generated dataset plus its config. */
  def generate(spark: SparkSession, cfg: Config): EaDataset = {
    val rnd = new Random(cfg.seed)

    val nCore = cfg.nCore
    val nSrc  = nCore + cfg.nSrcExtra
    val nTgt  = nCore + cfg.nTgtExtra

    // ---- vocabulary ------------------------------------------------------
    // One (mostly) unique head token per entity on either side, plus a small
    // shared category vocabulary that introduces token ambiguity.
    val nCat = 200
    val catVocab = Array.tabulate(nCat)(i => syntheticWord(new Random(cfg.seed * 31 + i), 2))
    def headToken(globalId: Long): String =
      syntheticWord(new Random(cfg.seed * 131 + globalId * 7 + 3), 3)

    // ---- base graph over core entities ------------------------------------
    // Preferential attachment *within* latent communities plus sparse
    // cross-community edges: real KGs (DBpedia) have topical locality, and
    // METIS-CPS depends on it — a pure PA expander has no structure any
    // partitioner could preserve.
    val mBase = math.max(nCore - 1, (nCore * cfg.avgDegBase / 2).toInt)
    val baseEdges = communityBase(nCore, mBase, cfg.communities, cfg.pCross, rnd)

    // ---- per-side edge sets ----------------------------------------------
    def sampleSide(keep: Double, r: Random): mutable.ArrayBuffer[(Int, Int)] = {
      val kept = mutable.ArrayBuffer[(Int, Int)]()
      baseEdges.foreach { case (u, v) => if (r.nextDouble() < keep) kept += ((u, v)) }
      val nPriv = (kept.size * cfg.privateEdgeFrac).toInt
      var i = 0
      while (i < nPriv) {
        val u = r.nextInt(nCore); val v = r.nextInt(nCore)
        if (u != v) { kept += ((math.min(u, v), math.max(u, v))); i += 1 } else i += 1
      }
      kept
    }
    val srcRnd = new Random(cfg.seed + 1)
    val tgtRnd = new Random(cfg.seed + 2)
    val srcCoreEdges = sampleSide(cfg.keepSrc, srcRnd)
    val tgtCoreEdges = sampleSide(cfg.keepTgt, tgtRnd)

    // ---- unknown entities: attach each to >= 5 *distinct* core entities.
    // Half the attachments stay in a home community (unknowns are topical),
    // half are global — in the paper unknown entities exacerbate KG
    // heterogeneity and degrade partition quality (§3.3, Appendix D).
    def attachExtras(nExtra: Int, offset: Int, edges: mutable.ArrayBuffer[(Int, Int)], r: Random): Unit = {
      var e = 0
      while (e < nExtra) {
        val id = offset + e
        val c = r.nextInt(cfg.communities)
        val lo = (nCore.toLong * c / cfg.communities).toInt
        val hi = (nCore.toLong * (c + 1) / cfg.communities).toInt
        val deg = 5 + r.nextInt(3)
        val nbrs = mutable.LinkedHashSet[Int]()
        while (nbrs.size < deg) {
          if (r.nextDouble() < 0.5 && hi - lo >= deg) nbrs += lo + r.nextInt(hi - lo)
          else nbrs += r.nextInt(nCore)
        }
        nbrs.foreach(n => edges += ((n, id)))
        e += 1
      }
    }
    attachExtras(cfg.nSrcExtra, nCore, srcCoreEdges, srcRnd)
    attachExtras(cfg.nTgtExtra, nCore, tgtCoreEdges, tgtRnd)

    // ---- relations ---------------------------------------------------------
    // Every edge carries a *base* relation drawn zipf-ish from a shared
    // vocabulary; each side renders it into its own (smaller) relation
    // vocabulary by modulo. Cross-lingual KGs share relation semantics
    // (dbo:birthPlace ↔ dbo:lieuDeNaissance), so relation frequencies must
    // correlate across sides — relation-aware models (RREA) rely on that.
    def baseRel(u: Int, v: Int): Int = {
      val h = new Random(cfg.seed * 17 + 29L + u.toLong * 1000003L + v)
      // squared-uniform draw concentrates mass on low relation ids (zipf-ish)
      val x = h.nextDouble()
      math.min(996, (x * x * 997).toInt)
    }
    def toTriples(edges: Seq[(Int, Int)], nRel: Int): Array[Int] = // u, r, v interleaved, as KG.triplesArray
      edges.distinct.iterator.flatMap { case (u, v) => Iterator(u, baseRel(u, v) % nRel, v) }.toArray

    val srcTriples = toTriples(srcCoreEdges.toSeq, cfg.nRelSrc)
    val tgtTriples = toTriples(tgtCoreEdges.toSeq, cfg.nRelTgt)

    // ---- names ------------------------------------------------------------
    // Canonical (English) token list per source entity / per target entity.
    val nameRnd = new Random(cfg.seed + 3)
    def canonicalTokens(globalId: Long, r: Random): Array[String] = {
      val nExtra = r.nextInt(3) // 0..2 category tokens
      val cats = Array.fill(nExtra)(catVocab(zipfCat(r, nCat)))
      Array(headToken(globalId)) ++ cats
    }
    // core entity i has the same canonical tokens on both sides;
    // extras get their own (per-side-unique) global ids.
    val coreTokens = Array.tabulate(nCore)(i => canonicalTokens(i.toLong, nameRnd))
    val srcExtraTokens = Array.tabulate(cfg.nSrcExtra)(i =>
      canonicalTokens(1000000L + i, nameRnd))
    val tgtExtraTokens = Array.tabulate(cfg.nTgtExtra)(i =>
      canonicalTokens(2000000L + i, nameRnd))

    val srcNames = new Array[String](nSrc)
    for (i <- 0 until nCore)          srcNames(i) = coreTokens(i).mkString(" ")
    for (i <- 0 until cfg.nSrcExtra)  srcNames(nCore + i) = srcExtraTokens(i).mkString(" ")

    // Target-side surfaces: pseudo-translate every token, then noise.
    val noiseRnd = new Random(cfg.seed + 4)
    def renderTarget(tokens: Array[String]): String = {
      var toks = tokens.map(t => translate(t, cfg.langTgt))
      if (toks.length > 1 && noiseRnd.nextDouble() < cfg.pDrop)
        toks = toks.take(toks.length - 1)                      // drop a category token
      toks = toks.map { t =>
        if (noiseRnd.nextDouble() < cfg.pTypo) typo(t, noiseRnd) else t
      }
      if (toks.length > 1 && noiseRnd.nextDouble() < cfg.pReorder) toks = toks.reverse
      toks.mkString(" ")
    }
    val tgtNames = new Array[String](nTgt)
    for (i <- 0 until nCore)          tgtNames(i) = renderTarget(coreTokens(i))
    for (i <- 0 until cfg.nTgtExtra)  tgtNames(nCore + i) = renderTarget(tgtExtraTokens(i))

    // ---- lexicon: clean translated surface -> canonical English surface.
    // Keys are lowercased in the root locale because the embedder's
    // tokenizer does so (German surfaces are capitalized).
    val allTokens: Set[String] =
      (coreTokens ++ srcExtraTokens ++ tgtExtraTokens).flatten.toSet ++ catVocab
    val lexicon: Map[String, String] =
      allTokens.iterator.map(t => translate(t, cfg.langTgt).toLowerCase(java.util.Locale.ROOT) -> t).toMap

    // ---- shuffle target ids so src id != tgt id (no accidental id leak) ---
    val perm = new Random(cfg.seed + 5).shuffle((0 until nTgt).toVector).toArray
    val tgtNamesShuffled = new Array[String](nTgt)
    for (i <- 0 until nTgt) tgtNamesShuffled(perm(i)) = tgtNames(i)
    val tgtTriplesShuffled = tgtTriples.zipWithIndex.map { case (x, i) => if (i % 3 == 1) x else perm(x) }

    // ---- assemble ----------------------------------------------------------
    val srcKG = KG.fromLocal(spark, "en", srcNames, srcTriples)
    val tgtKG = KG.fromLocal(spark, cfg.langTgt, tgtNamesShuffled, tgtTriplesShuffled)

    val truthPairs = (0 until nCore).map(i => (i.toLong, perm(i).toLong))
    val splitRnd = new Random(cfg.seed + 6)
    val shuffled = splitRnd.shuffle(truthPairs.toVector)
    val nTrain = (nCore * cfg.seedRatio).toInt

    EaDataset.fromLocal(cfg.name, srcKG, tgtKG, truthPairs, shuffled.take(nTrain), shuffled.drop(nTrain), lexicon)
  }

  // ---------------------------------------------------------------------
  // helpers
  // ---------------------------------------------------------------------

  private val syllables = Array(
    "ba", "re", "mo", "ti", "lan", "dor", "vel", "ka", "su", "ne",
    "gi", "fa", "lo", "pu", "ran", "mi", "tos", "hel", "war", "den")

  /** A pronounceable pseudo-word of `n`+1..`n`+2 syllables. */
  private[kg] def syntheticWord(r: Random, n: Int): String = {
    val len = n + r.nextInt(2)
    (0 to len).map(_ => syllables(r.nextInt(syllables.length))).mkString
  }

  /** Zipf-ish category index: squared uniform concentrates low indices. */
  private def zipfCat(r: Random, n: Int): Int = {
    val x = r.nextDouble()
    math.min(n - 1, (x * x * n).toInt)
  }

  /** Deterministic pseudo-translation of a token into `lang`.
    *
    * Keeps substantial character overlap with the English surface (as real
    * cognate-heavy DBpedia names do) so string similarity stays informative,
    * while changing enough characters that exact match fails.
    */
  private[kg] def translate(token: String, lang: String): String = lang match {
    case "fr" =>
      token.replace("ka", "qua").replace("war", "gue").replace("ti", "té") + "e"
    case "de" =>
      (token.replace("su", "zu").replace("fa", "va").replace("lo", "loh") + "en").capitalize
    case other => token + "_" + other
  }

  /** One random character edit (substitute / delete / duplicate). */
  private[kg] def typo(token: String, r: Random): String = {
    if (token.isEmpty) return token
    val i = r.nextInt(token.length)
    r.nextInt(3) match {
      case 0 => token.updated(i, ('a' + r.nextInt(26)).toChar)
      case 1 if token.length > 1 => token.substring(0, i) + token.substring(i + 1)
      case _ => token.substring(0, i + 1) + token.charAt(i) + token.substring(i + 1)
    }
  }

  /** Base graph: preferential attachment inside each of `communities`
    * contiguous vertex blocks, plus `pCross`·m random cross-block edges.
    */
  private[kg] def communityBase(
      n: Int, m: Int, communities: Int, pCross: Double, rnd: Random): Array[(Int, Int)] = {
    val edges = mutable.LinkedHashSet[(Int, Int)]()
    val bounds = Array.tabulate(communities + 1)(c => (n.toLong * c / communities).toInt)
    val mWithin = (m * (1.0 - pCross)).toInt
    for (c <- 0 until communities) {
      val lo = bounds(c); val hi = bounds(c + 1); val sz = hi - lo
      if (sz >= 2) {
        val mC = math.max(sz - 1, mWithin.toLong * sz / n).toInt
        preferentialAttachment(sz, mC, rnd).foreach { case (u, v) =>
          edges += ((lo + u, lo + v))
        }
      }
    }
    val mX = (m * pCross).toInt
    var i = 0
    while (i < mX) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) edges += ((math.min(a, b), math.max(a, b)))
      i += 1
    }
    edges.toArray
  }

  /** Preferential-attachment edge list over `n` vertices, ~`m` edges. */
  private[kg] def preferentialAttachment(n: Int, m: Int, rnd: Random): Array[(Int, Int)] = {
    val edges = mutable.LinkedHashSet[(Int, Int)]()
    // Endpoint pool realizes degree-proportional sampling.
    val pool = mutable.ArrayBuffer[Int](0)
    var v = 1
    while (v < n) {
      val u = pool(rnd.nextInt(pool.size))
      if (u != v) {
        edges += ((math.min(u, v), math.max(u, v)))
        pool += u
      }
      pool += v
      v += 1
    }
    while (edges.size < m) {
      val a = pool(rnd.nextInt(pool.size))
      val b = rnd.nextInt(n)
      if (a != b) edges += ((math.min(a, b), math.max(a, b)))
      pool += a
    }
    edges.toArray
  }
}
