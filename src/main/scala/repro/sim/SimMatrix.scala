package repro.sim

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A sparse entity-similarity matrix in CSR form, held in local arrays.
  *
  * Row `s` holds the cells `rowPtr(s) until rowPtr(s + 1)` of `tgt` and
  * `score`, sorted by score desc, then target id asc, so a cell's rank in its
  * row is its position. Both channels produce one of these (the paper's Ms
  * and Mn); fusion is score addition over the union of supports (absent
  * cells are 0), which mirrors M = Ms + Mn / Mn = Mse + γ·Mst. Rows are top-k
  * or block-diagonal, so every operation is a local pass, not a shuffle.
  */
final class SimMatrix private (
    val spark: SparkSession,
    val numRows: Int,
    val numCols: Int,
    val rowPtr: Array[Int],
    val tgt: Array[Int],
    val score: Array[Double]) {

  /** Number of stored cells. */
  def nnz: Long = tgt.length.toLong

  /** Row `s` as (tgt, score) in rank order; empty outside the matrix. */
  def row(s: Int): Array[(Int, Double)] =
    if (s < 0 || s >= numRows) Array.empty
    else (rowPtr(s) until rowPtr(s + 1)).map(i => (tgt(i), score(i))).toArray

  /** 1-based rank of cell (s, t) in row s, or 0 if the cell is not stored. */
  def rank(s: Long, t: Long): Int =
    if (s < 0 || s >= numRows) 0
    else (rowPtr(s.toInt) until rowPtr(s.toInt + 1)).indexWhere(tgt(_) == t) + 1

  /** Every cell as (src, tgt, score), row by row in rank order. */
  def cells: Iterator[(Int, Int, Double)] =
    Iterator.range(0, numRows).flatMap(s => row(s).iterator.map { case (t, v) => (s, t, v) })

  /** this + weight·other over the union of supports; a shared cell scores
    * `a + weight·b`. Each row is emitted in rank order, merged from three
    * runs: this row's own cells, the shared cells (re-scored, then sorted)
    * and the other row's own cells.
    */
  def plus(other: SimMatrix, weight: Double = 1.0): SimMatrix = {
    val nR = math.max(numRows, other.numRows)
    val nC = math.max(numCols, other.numCols)
    val src = new Array[Int](nnz.toInt + other.tgt.length)
    val tgtOut = new Array[Int](src.length)
    val scoreOut = new Array[Double](src.length)
    var n = 0
    val mark = new Array[Int](nC) // s + 1: t is in other's row s; -(s + 1): in both rows s
    val b = new Array[Double](nC) // weight·other's score of (s, t)
    val sharedT = new Array[Int](nC)
    val sharedV = new Array[Double](nC)
    var s = 0
    while (s < nR) {
      val (from, until) = if (s < numRows) (rowPtr(s), rowPtr(s + 1)) else (0, 0)
      val (oFrom, oUntil) = if (s < other.numRows) (other.rowPtr(s), other.rowPtr(s + 1)) else (0, 0)
      var i = oFrom
      while (i < oUntil) { mark(other.tgt(i)) = s + 1; b(other.tgt(i)) = weight * other.score(i); i += 1 }
      var k = 0
      i = from
      while (i < until) {
        val t = tgt(i)
        if (mark(t) == s + 1) { sharedT(k) = t; sharedV(k) = score(i) + b(t); mark(t) = -(s + 1); k += 1 }
        i += 1
      }
      SimMatrix.sortRow(sharedT, sharedV, 0, k)
      // three-way merge by rank; fromBlocks fixes any order this misses
      i = from
      var j = oFrom
      var h = 0
      var run = 0 // the run whose head ranks first: 0 this row's own cells, 1 other's, 2 shared; -1 none
      while (run >= 0) {
        while (i < until && mark(tgt(i)) == -(s + 1)) i += 1
        while (j < oUntil && mark(other.tgt(j)) == -(s + 1)) j += 1
        run = -1
        var t = 0; var v = 0.0 // the head of `run`
        if (i < until) { run = 0; t = tgt(i); v = score(i) }
        if (j < oUntil && (run < 0 || SimMatrix.precedes(other.tgt(j), b(other.tgt(j)), t, v))) {
          run = 1; t = other.tgt(j); v = b(t)
        }
        if (h < k && (run < 0 || SimMatrix.precedes(sharedT(h), sharedV(h), t, v))) {
          run = 2; t = sharedT(h); v = sharedV(h)
        }
        if (run >= 0) { src(n) = s; tgtOut(n) = t; scoreOut(n) = v; n += 1 }
        if (run == 0) i += 1 else if (run == 1) j += 1 else if (run == 2) h += 1
      }
      s += 1
    }
    SimMatrix.fromBlocks(spark, nR, nC, Seq(SimMatrix.Block(
      java.util.Arrays.copyOf(src, n), java.util.Arrays.copyOf(tgtOut, n), java.util.Arrays.copyOf(scoreOut, n))))
  }

  /** A no-op: the matrix already lives in local memory. */
  def cache(): SimMatrix = this

  /** The cells as a DataFrame (src: Long, tgt: Long, score: Double). */
  lazy val df: DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(cells.map { case (s, t, v) => (s.toLong, t.toLong, v) }.toArray.toSeq)
      .toDF("src", "tgt", "score")
  }
}

object SimMatrix {

  /** Cells from one task, in any order: cell i is (src(i), tgt(i), score(i)). */
  final case class Block(src: Array[Int], tgt: Array[Int], score: Array[Double])

  /** Build from local cells (src, tgt, score). */
  def fromLocal(spark: SparkSession, rows: Iterable[(Long, Long, Double)], numRows: Int, numCols: Int): SimMatrix = {
    def id(x: Long): Int = x.max(-1L).min(Int.MaxValue.toLong).toInt // out of range stays out of range
    fromBlocks(spark, numRows, numCols,
      Seq(Block(rows.map(c => id(c._1)).toArray, rows.map(c => id(c._2)).toArray, rows.map(_._3).toArray)))
  }

  /** Build from rows computed by parallel Spark tasks, each over a slice of
    * row ids: `row(s)` gives row s's cells as (targets, scores).
    */
  def tabulate(spark: SparkSession, numRows: Int, numCols: Int)(row: Int => (Array[Int], Array[Double])): SimMatrix = {
    val slices = math.min(64, math.max(1, numRows / 256))
    val blocks = spark.sparkContext.parallelize(0 until slices, slices).map { p =>
      val src = Array.newBuilder[Int]
      val tgt = Array.newBuilder[Int]
      val score = Array.newBuilder[Double]
      for (s <- (numRows.toLong * p / slices).toInt until (numRows.toLong * (p + 1) / slices).toInt) {
        val (t, v) = row(s)
        src ++= Array.fill(t.length)(s); tgt ++= t; score ++= v
      }
      Block(src.result(), tgt.result(), score.result())
    }.collect()
    fromBlocks(spark, numRows, numCols, blocks.toSeq)
  }

  /** Build from the cell blocks of parallel tasks. Throws
    * IllegalArgumentException on a negative or out-of-shape id, or on a
    * cell stored twice.
    */
  def fromBlocks(spark: SparkSession, numRows: Int, numCols: Int, blocks: Seq[Block]): SimMatrix = {
    // counting sort by row; it is stable, so rows that arrive in rank order stay so
    val ptr = new Array[Int](numRows + 1)
    for (b <- blocks; i <- b.src.indices) {
      val (s, t) = (b.src(i), b.tgt(i))
      require(s >= 0 && t >= 0, s"negative id in cell ($s, $t)")
      require(s < numRows && t < numCols, s"cell ($s, $t) outside the $numRows x $numCols shape")
      ptr(s + 1) += 1
    }
    for (s <- 0 until numRows) ptr(s + 1) += ptr(s)
    val next = ptr.clone()
    val tgt = new Array[Int](ptr(numRows))
    val score = new Array[Double](tgt.length)
    for (b <- blocks; i <- b.src.indices) {
      val j = next(b.src(i))
      tgt(j) = b.tgt(i); score(j) = b.score(i)
      next(b.src(i)) = j + 1
    }
    val lastRow = Array.fill(numCols)(-1) // the last row that stored target t
    for (s <- 0 until numRows) {
      for (i <- ptr(s) until ptr(s + 1)) {
        require(lastRow(tgt(i)) != s, s"cell ($s, ${tgt(i)}) is stored twice")
        lastRow(tgt(i)) = s
      }
      sortRow(tgt, score, ptr(s), ptr(s + 1))
    }
    new SimMatrix(spark, numRows, numCols, ptr, tgt, score)
  }

  /** The empty matrix. */
  def empty(spark: SparkSession): SimMatrix = fromBlocks(spark, 0, 0, Nil)

  /** Whether cell (t1, v1) ranks before (t2, v2) in a row: score desc, then target asc. */
  private def precedes(t1: Int, v1: Double, t2: Int, v2: Double): Boolean = v1 > v2 || (v1 == v2 && t1 < t2)

  /** Insertion sort of cells [from, until) by score desc, then target asc:
    * rows are short (top-k) and usually arrive in order.
    */
  private def sortRow(tgt: Array[Int], score: Array[Double], from: Int, until: Int): Unit =
    for (i <- from + 1 until until) {
      val (t, v) = (tgt(i), score(i))
      var j = i - 1
      while (j >= from && precedes(t, v, tgt(j), score(j))) {
        tgt(j + 1) = tgt(j); score(j + 1) = score(j); j -= 1
      }
      tgt(j + 1) = t; score(j + 1) = v
    }
}
