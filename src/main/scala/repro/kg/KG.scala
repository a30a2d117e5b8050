package repro.kg

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A knowledge graph G = (E, R, T) held in driver arrays: `namesArray(e)`
  * is the name of entity e (so ids are dense 0..n-1) and `triplesArray`
  * holds the directed edges h --r--> t as h, r, t interleaved, the one
  * triple format of the program. Construction throws IllegalArgumentException
  * on a `null` name (the paper's name channel assumes every entity has one),
  * on a triple endpoint outside [0, n), on a negative relation id (relations
  * are counted by id) or on a length that is not a multiple of 3. `entities`
  * (id: Long, name: String) and `triples` (h: Long, r: Int, t: Long) are
  * DataFrame views of the arrays, for the DuckDB oracle tests and the
  * benchmark harness.
  */
final class KG private (
    val spark: SparkSession,
    val lang: String,
    val namesArray: Array[String],
    val triplesArray: Array[Int]) {

  private val n = namesArray.length
  require(!namesArray.contains(null), s"entity ${namesArray.indexOf(null)} of KG $lang has no name")
  require(triplesArray.length % 3 == 0, s"KG $lang has ${triplesArray.length} triple ints, not a multiple of 3")
  for (i <- triplesArray.indices by 3) {
    val h = triplesArray(i); val r = triplesArray(i + 1); val t = triplesArray(i + 2)
    require(h >= 0 && h < n && t >= 0 && t < n, s"triple ($h, $r, $t) of KG $lang has an endpoint outside [0, $n)")
    require(r >= 0, s"triple ($h, $r, $t) of KG $lang has a negative relation id")
  }

  /** Number of entities |E|. */
  def numEntities: Long = n

  /** Number of distinct relations |R|. */
  lazy val numRelations: Long = Iterator.range(1, triplesArray.length, 3).map(triplesArray(_)).distinct.size

  /** Number of triples |T|. */
  def numTriples: Long = triplesArray.length / 3

  lazy val entities: DataFrame =
    spark.createDataFrame(namesArray.toSeq.zipWithIndex.map { case (nm, i) => (i.toLong, nm) }).toDF("id", "name")

  lazy val triples: DataFrame =
    spark.createDataFrame((triplesArray.indices by 3).map(i =>
      (triplesArray(i).toLong, triplesArray(i + 1), triplesArray(i + 2).toLong))).toDF("h", "r", "t")

  /** Undirected edges (u, v) with u < v, parallel edges collapsed and
    * self-loops dropped, in ascending (u, v) order, as the arrays (us, vs):
    * the METIS input. A local pass over `triplesArray`, so the order does
    * not depend on how the triples were stored or on any Spark setting.
    */
  def undirectedEdges: (Array[Int], Array[Int]) = {
    // (min, max) packed into one Long per non-loop triple, sorted, deduplicated
    val keys = new Array[Long](triplesArray.length / 3)
    var m = 0
    for (i <- triplesArray.indices by 3) {
      val h = triplesArray(i); val t = triplesArray(i + 2)
      if (h != t) { keys(m) = math.min(h, t).toLong << 32 | math.max(h, t); m += 1 }
    }
    java.util.Arrays.sort(keys, 0, m)
    val edges = Array.range(0, m).filter(j => j == 0 || keys(j - 1) != keys(j)).map(keys(_))
    (edges.map(e => (e >>> 32).toInt), edges.map(_.toInt))
  }
}

object KG {

  /** Build a KG from driver-side arrays (used by the generator and tests). */
  def fromLocal(spark: SparkSession, lang: String, names: Array[String], triples: Array[Int]): KG =
    new KG(spark, lang, names, triples)
}

/** A cross-lingual EA dataset: source KG, target KG, ground-truth 1-to-1
  * alignment, and a train/test split of it (seed ratio per the paper: 20 %).
  *
  *  - `truthPairs`: (src, tgt) — full EA ground truth ψ.
  *  - `trainPairs`: seed alignment ψ′ ⊂ ψ given to the model.
  *  - `testPairs` : ψ \ ψ′, used only for evaluation.
  *
  * The pairs are sorted, so downstream algorithms (seed round-robin, CPS hub
  * picks, anchor ids) see one order; `truth`, `train` and `test` are
  * DataFrame views (src: Long, tgt: Long) of them. Construction throws
  * IllegalArgumentException unless the truth is 1-to-1, train ∩ test = ∅,
  * train ∪ test = truth and every id is an entity of its KG.
  *
  * `lexicon` maps every foreign-language token surface to its canonical
  * (English) token surface. It stands in for the *pretrained* cross-lingual
  * knowledge of multilingual BERT (token-level, not entity-level — see
  * DESIGN.md §2); it is consumed by `repro.embed.PseudoBert`.
  */
final class EaDataset private (
    val name: String,
    val source: KG,
    val target: KG,
    val truthPairs: Array[(Long, Long)],
    val trainPairs: Array[(Long, Long)],
    val testPairs: Array[(Long, Long)],
    val lexicon: Map[String, String]) {

  (truthPairs.iterator ++ trainPairs ++ testPairs).foreach { case (s, t) =>
    require(s >= 0 && s < source.numEntities && t >= 0 && t < target.numEntities,
      s"pair ($s, $t) is outside the ${source.numEntities} x ${target.numEntities} entities")
  }
  require(truthPairs.map(_._1).distinct.length == truthPairs.length &&
    truthPairs.map(_._2).distinct.length == truthPairs.length, "the ground truth is not 1-to-1")
  private val trainSet = trainPairs.toSet
  require(!testPairs.exists(trainSet), "train and test share a pair")
  require(trainSet ++ testPairs == truthPairs.toSet, "train ∪ test is not the ground truth")

  lazy val truth: DataFrame = view(truthPairs)
  lazy val train: DataFrame = view(trainPairs)
  lazy val test: DataFrame = view(testPairs)
  private def view(pairs: Array[(Long, Long)]) = source.spark.createDataFrame(pairs.toSeq).toDF("src", "tgt")

  /** Swap source and target (the paper's EN→L vs L→EN directions). */
  def reversed: EaDataset = EaDataset.fromLocal(s"$name-rev", target, source,
    truthPairs.map(_.swap), trainPairs.map(_.swap), testPairs.map(_.swap), lexicon)
}

object EaDataset {

  /** Build a dataset from pairs in any order. */
  def fromLocal(
      name: String,
      source: KG,
      target: KG,
      truth: Iterable[(Long, Long)],
      train: Iterable[(Long, Long)],
      test: Iterable[(Long, Long)],
      lexicon: Map[String, String]): EaDataset =
    new EaDataset(name, source, target,
      truth.toArray.sorted, train.toArray.sorted, test.toArray.sorted, lexicon)
}
