package repro

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.apache.spark.sql.SparkSession
import repro.kg.Graph
import repro.sim.SimMatrix
import scala.util.Random

/** Minimal ScalaCheck runner for use inside ScalaTest suites — the
  * scalatestplus bridge artifact is not in the offline cache, so
  * properties are checked directly and surfaced as assertions.
  */
trait PropHelper {
  def checkProp(p: Prop, minSuccessful: Int = 30): Unit = {
    val params = SCTest.Parameters.default
      .withMinSuccessfulTests(minSuccessful)
      .withInitialSeed(org.scalacheck.rng.Seed(42L))
    val res = SCTest.check(params, p)
    assert(res.passed, s"property failed: ${res.status}")
  }
}

/** Random small graphs for the propagation properties. */
object TestGraphs {

  /** (n, triples) with self-loops, isolated vertices, relation ids repeated
    * across triples and some edges in both orientations. The triples are
    * tuples, as the reference kernels take them; `flat` gives the program's
    * format.
    */
  val gen: Gen[(Int, Array[(Int, Int, Int)])] = for {
    n     <- Gen.choose(1, 12)
    m     <- Gen.choose(0, 30)
    kinds <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, 2), Gen.choose(0, n - 1), Gen.choose(0, 5)))
    extra <- Gen.choose(0, 3) // vertices past every triple: isolated
  } yield {
    val triples = kinds.flatMap {
      case (h, r, _, 0) => List((h, r, h))            // a self-loop
      case (h, r, t, 1) => List((h, r, t), (t, r, h)) // both orientations
      case (h, r, t, _) => List((h, r, t))
    }
    (n + extra, triples.toArray)
  }

  /** (n, weighted edges) with self-loops, isolated vertices, edges in both
    * orientations, parallel edges and zero weights.
    */
  val edges: Gen[(Int, Seq[(Int, Int, Double)])] = for {
    n     <- Gen.choose(1, 12)
    m     <- Gen.choose(0, 30)
    kinds <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1),
               Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 10.0)), Gen.choose(0, 5)))
    extra <- Gen.choose(0, 3) // vertices past every edge: isolated
  } yield {
    val edges = kinds.flatMap {
      case (u, _, w, 0) => List((u, u, w))                  // a self-loop
      case (u, v, w, 1) => List((u, v, w), (v, u, w / 3))   // both orientations
      case (u, v, w, 2) => List((u, v, w), (u, v, w + 0.1)) // parallel
      case (u, v, w, _) => List((u, v, w))
    }
    (n + extra, edges)
  }

  /** (n, weighted edges) at up to about 2,000 vertices, in the shapes
    * METIS-CPS builds: up to four star hubs with up to 600 spokes each (the
    * w′ virtual edges), random edges repeated in parallel and reversed with
    * non-integral weights, zero weights of both signs, self-loops, and
    * vertices past every edge.
    */
  val largeEdges: Gen[(Int, Seq[(Int, Int, Double)])] = for {
    n    <- Gen.choose(1, 2000)
    seed <- Gen.long
  } yield {
    val r = new Random(seed)
    def weight(): Double = r.nextInt(4) match {
      case 0 => 0.0
      case 1 => -0.0
      case 2 => r.nextInt(5).toDouble
      case _ => r.nextDouble() * 10
    }
    val hubs = Seq.fill(r.nextInt(5)) {
      val hub = r.nextInt(n)
      Seq.fill(r.nextInt(math.min(n, 600) + 1))((hub, r.nextInt(n), 3.5))
    }.flatten
    val random = Seq.fill(r.nextInt(3 * n + 1))((r.nextInt(n), r.nextInt(n), weight())).flatMap {
      case (u, v, w) => r.nextInt(6) match {
        case 0 => Seq((u, u, w))                      // a self-loop
        case 1 => Seq((u, v, w), (v, u, w / 3))       // both orientations
        case 2 => Seq((u, v, w), (u, v, w + 0.1))     // parallel
        case _ => Seq((u, v, w))
      }
    }
    (n + r.nextInt(50), r.shuffle(hubs ++ random)) // vertices past n: isolated
  }

  /** (h, r, t) triples listed as tuples, interleaved into one array: the
    * format of `KG.triplesArray`, `Graph.fromTriples` and `GnnEA.adjacency`.
    */
  def flat(triples: Iterable[(Int, Int, Int)]): Array[Int] =
    triples.iterator.flatMap { case (h, r, t) => Iterator(h, r, t) }.toArray

  /** `Graph.fromEdges` over (u, v, w) edges listed as tuples. */
  def graph(n: Int, edges: Iterable[(Int, Int, Double)]): Graph = {
    val (us, vs, ws) = edges.toArray.unzip3
    Graph.fromEdges(n, us, vs, ws)
  }

  /** Row by row, the same float bits. */
  def sameBits(a: Array[Array[Float]], b: Array[Array[Float]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))
}

/** Random sparse matrices for the `SimMatrix.plus` properties. */
object TestMatrices {

  /** Same shape, row pointers, targets and raw score bits. */
  def sameBits(a: SimMatrix, b: SimMatrix): Boolean =
    a.numRows == b.numRows && a.numCols == b.numCols &&
      java.util.Arrays.equals(a.rowPtr, b.rowPtr) && java.util.Arrays.equals(a.tgt, b.tgt) &&
      a.score.map(java.lang.Double.doubleToRawLongBits).sameElements(b.score.map(java.lang.Double.doubleToRawLongBits))

  /** A numRows x numCols matrix with rows of up to about 60 cells; scores
    * are drawn from a small pool (ties, `0.0` and `-0.0`) or at random.
    */
  def gen(spark: SparkSession, numRows: Int, numCols: Int, seed: Long): SimMatrix = {
    val r = new Random(seed)
    val pool = Array(0.0, -0.0, 0.25, 0.5, 1.0, 0.1, 0.3)
    val cells = for {
      s <- 0 until numRows
      density = r.nextDouble()
      t <- 0 until numCols if r.nextDouble() < density
    } yield (s, t, if (r.nextBoolean()) pool(r.nextInt(pool.length)) else r.nextDouble())
    SimMatrix.fromBlocks(spark, numRows, numCols,
      Seq(SimMatrix.Block(cells.map(_._1).toArray, cells.map(_._2).toArray, cells.map(_._3).toArray)))
  }
}
