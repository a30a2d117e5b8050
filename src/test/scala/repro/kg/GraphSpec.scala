package repro.kg

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropHelper, ReferenceKernels, TestGraphs}

/** Property tests for the CSR graph type. */
class GraphSpec extends AnyFunSuite with PropHelper {

  /** `g` has the reference's per-vertex neighbours and raw weight bits. */
  private def sameAsReference(n: Int, edges: Seq[(Int, Int, Double)]): Boolean = {
    val g = TestGraphs.graph(n, edges)
    val (adjN, adjW) = ReferenceKernels.fromEdges(n, edges)
    def bits(w: Array[Double]) = w.map(java.lang.Double.doubleToRawLongBits)
    g.n == n && g.ptr(0) == 0 && (0 until n).forall { u =>
      java.util.Arrays.equals(g.nbr.slice(g.ptr(u), g.ptr(u + 1)), adjN(u)) &&
        java.util.Arrays.equals(bits(g.w.slice(g.ptr(u), g.ptr(u + 1))), bits(adjW(u)))
    }
  }

  test("property: fromEdges gives the former per-vertex neighbours and summed weights bit for bit") {
    checkProp(Prop.forAll(TestGraphs.edges) { case (n, edges) =>
      val g = TestGraphs.graph(n, edges)
      val (adjN, adjW) = ReferenceKernels.fromEdges(n, edges)
      g.n == n && (0 until n).forall { u =>
        java.util.Arrays.equals(g.nbr.slice(g.ptr(u), g.ptr(u + 1)), adjN(u)) &&
          java.util.Arrays.equals(g.w.slice(g.ptr(u), g.ptr(u + 1)), adjW(u))
      }
    }, minSuccessful = 300)
  }

  test("property: fromEdges matches the former build at up to 2,000 vertices with star hubs, raw bits") {
    checkProp(Prop.forAll(TestGraphs.largeEdges) { case (n, edges) =>
      sameAsReference(n, edges)
    }, minSuccessful = 120)
  }

  test("fromEdges rejects edge arrays of unequal length and endpoints outside [0, n)") {
    def rejected(n: Int, us: Array[Int], vs: Array[Int], ws: Array[Double], why: String): Unit = {
      val e = intercept[IllegalArgumentException](Graph.fromEdges(n, us, vs, ws))
      assert(e.getMessage.contains(why), e.getMessage)
    }
    rejected(3, Array(0, 1), Array(1), Array(1.0, 1.0), "lengths 2, 1 and 2")
    rejected(3, Array(0), Array(1), Array(1.0, 2.0), "lengths 1, 1 and 2")
    rejected(3, Array(0, 3), Array(1, 0), Array(1.0, 1.0), "outside [0, 3)")
    rejected(3, Array(0, 2), Array(1, -1), Array(1.0, 1.0), "outside [0, 3)")
    rejected(3, Array(3), Array(3), Array(1.0), "outside [0, 3)") // a self-loop is checked too
  }
}
