package repro.name

import org.apache.spark.sql.DataFrame
import repro.sim.SimMatrix

/** Name-based data augmentation (paper §2.3).
  *
  * Inspired by cycle consistency in word translation: a pair (s, t) becomes
  * a *pseudo seed* iff t is s's most similar target under Mn AND s is t's
  * most similar source — mutual nearest neighbours. No human labels needed;
  * in the unsupervised case (§3.5) these pseudo seeds are the only seeds.
  */
object DataAug {

  /** Mutual-nearest-neighbour pseudo seeds from a name similarity matrix,
    * sorted by source id.
    *
    * In addition to cycle consistency (mutual argmax), a pair must beat the
    * source row's runner-up by `margin` — the standard precision device in
    * unsupervised word translation; it prunes ambiguous matches the way
    * BERT's better-separated scores do for the paper (whose DA reaches
    * ~94 % precision). Argmax ties go to the lower partner id on both sides.
    */
  def pseudoSeedPairs(mn: SimMatrix, margin: Double = 1.02): Array[(Long, Long)] = {
    // the best cell of each column; cells ascend by row, so a tie keeps the lower src
    val colBest = Array.fill(mn.numCols)(-1)
    for (i <- mn.tgt.indices if colBest(mn.tgt(i)) < 0 || mn.score(i) > mn.score(colBest(mn.tgt(i))))
      colBest(mn.tgt(i)) = i
    // a row's argmax and runner-up are its first two cells
    (0 until mn.numRows).map(s => (s, mn.rowPtr(s), mn.rowPtr(s + 1))).collect {
      case (s, a, b) if b > a && colBest(mn.tgt(a)) == a && (b == a + 1 || mn.score(a) >= mn.score(a + 1) * margin) =>
        (s.toLong, mn.tgt(a).toLong)
    }.toArray
  }

  /** `pseudoSeedPairs` as a DataFrame (src: Long, tgt: Long). */
  def pseudoSeeds(mn: SimMatrix, margin: Double = 1.02): DataFrame = {
    import mn.spark.implicits._
    pseudoSeedPairs(mn, margin).toSeq.toDF("src", "tgt")
  }

  /** Merge real seeds with pseudo seeds, keeping the result 1-to-1:
    * real seeds win; a pseudo seed is dropped if either of its endpoints
    * already occurs in the merged set.
    */
  def mergeSeeds(
      real: Array[(Long, Long)],
      pseudo: Array[(Long, Long)]): Array[(Long, Long)] = {
    val usedSrc = scala.collection.mutable.Set[Long](real.map(_._1).toIndexedSeq: _*)
    val usedTgt = scala.collection.mutable.Set[Long](real.map(_._2).toIndexedSeq: _*)
    val out = scala.collection.mutable.ArrayBuffer[(Long, Long)](real.toIndexedSeq: _*)
    pseudo.foreach { case (s, t) =>
      if (!usedSrc.contains(s) && !usedTgt.contains(t)) {
        out += ((s, t)); usedSrc += s; usedTgt += t
      }
    }
    out.toArray
  }

  /** Precision of pseudo seeds against the full ground truth (§3.5 reports
    * 93.86 % / 93.85 % on DBP1M).
    */
  def precision(pseudo: Array[(Long, Long)], truth: Array[(Long, Long)]): Double = {
    if (pseudo.isEmpty) return 0.0
    val t = truth.toSet
    pseudo.count(t.contains).toDouble / pseudo.length
  }
}
