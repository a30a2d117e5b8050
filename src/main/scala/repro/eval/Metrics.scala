package repro.eval

import org.apache.spark.sql.DataFrame
import repro.sim.SimMatrix

/** EA evaluation: Hits@N and MRR over a test alignment (paper §3.1).
  *
  * For each test pair (s, t*): the rank of t* among the stored candidates
  * of row s, ordered by score desc (ties broken by target id asc for
  * determinism). A pair whose true target is absent from the sparse row is
  * a miss — rank ∞, contributing 0 to Hits@N and to MRR. This matches how
  * a top-k-sparse similarity matrix is scored.
  */
final case class EaScores(hits1: Double, hits5: Double, mrr: Double, n: Long) {
  def pretty: String = f"H@1=${hits1 * 100}%.1f H@5=${hits5 * 100}%.1f MRR=$mrr%.2f (n=$n)"
}

object Metrics {

  /** Evaluate `sim` against `test` (DataFrame with columns src, tgt). */
  def evaluate(sim: SimMatrix, test: DataFrame): EaScores =
    evaluate(sim, test.select("src", "tgt").collect().map(r => (r.getLong(0), r.getLong(1))))

  /** Evaluate `sim` against local test pairs (src, tgt). */
  def evaluate(sim: SimMatrix, test: Array[(Long, Long)]): EaScores = {
    if (test.isEmpty) return EaScores(0, 0, 0, 0)
    // sorted, so that MRR sums in an order that does not depend on the test order
    val ranks = test.map { case (s, t) => sim.rank(s, t) }.filter(_ > 0).sorted
    val n = test.length.toDouble
    EaScores(ranks.count(_ == 1) / n, ranks.count(_ <= 5) / n, ranks.map(1.0 / _).sum / n, test.length)
  }
}
