package repro.embed

import scala.collection.parallel.CollectionConverters._
import scala.util.hashing.MurmurHash3

/** Deterministic multilingual token embedder — the BERT substitute for SENS.
  *
  * The paper feeds entity names through BERT, max-pools the token
  * embeddings and L2-normalizes with an ε guard (§2.3, function SENS).
  * We replace the pretrained LM with:
  *
  *  - a *lexicon* mapping foreign token surfaces to canonical English
  *    surfaces — this plays the role of multilingual BERT's pretrained
  *    cross-lingual knowledge (token level, never entity level); tokens
  *    missing from the lexicon (typos, private tokens) fall back to their
  *    raw surface, i.e. they embed far from everything else;
  *  - a hash-seeded Gaussian vector per canonical token (splitmix64 +
  *    Box–Muller) — deterministic "pretrained" token embeddings.
  *
  * Everything downstream (max-pool, normalization, Manhattan top-k) is
  * exactly the paper's pipeline.
  */
final class PseudoBert(lexicon: Map[String, String], dim: Int = 64) extends Serializable {

  /** Lowercase + split on non-alphanumerics (BERT-ish basic tokenizer;
    * unicode letters kept so pseudo-French accents survive).
    */
  def tokenize(name: String): Array[String] =
    name.toLowerCase(java.util.Locale.ROOT).split("[^\\p{L}\\p{N}]+").filter(_.nonEmpty)

  /** Canonicalize a token through the lexicon (identity for English /
    * out-of-lexicon surfaces).
    */
  def canonical(token: String): String = lexicon.getOrElse(token, token)

  /** Deterministic embedding of one token. */
  def tokenVector(token: String): Array[Float] = {
    val h = MurmurHash3.stringHash(canonical(token), 0x5bd1).toLong
    VecOps.hashGaussian(1234L ^ (h << 17) ^ h, dim)
  }

  /** Entity-name embedding: max-pool over token vectors, L2-normalized
    * with ε (paper's SENS equation). A name with no tokens embeds to the
    * exact zero vector.
    */
  def embed(name: String): Array[Float] = {
    val toks = tokenize(name)
    if (toks.isEmpty) return new Array[Float](dim)
    val out = Array.fill(dim)(Float.MinValue)
    toks.foreach(t => VecOps.maxPoolInPlace(out, tokenVector(t)))
    VecOps.normalize(out)
  }

  /** Embed a whole name array (index-aligned), the names in parallel. */
  def embedAll(names: Array[String]): Array[Array[Float]] = names.par.map(embed).toArray
}
