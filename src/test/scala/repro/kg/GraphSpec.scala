package repro.kg

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropHelper, ReferenceKernels, TestGraphs}

/** Property tests for the CSR graph type. */
class GraphSpec extends AnyFunSuite with PropHelper {

  test("property: fromEdges gives the former per-vertex neighbours and summed weights bit for bit") {
    checkProp(Prop.forAll(TestGraphs.edges) { case (n, edges) =>
      val g = Graph.fromEdges(n, edges)
      val (adjN, adjW) = ReferenceKernels.fromEdges(n, edges)
      g.n == n && (0 until n).forall { u =>
        java.util.Arrays.equals(g.nbr.slice(g.ptr(u), g.ptr(u + 1)), adjN(u)) &&
          java.util.Arrays.equals(g.w.slice(g.ptr(u), g.ptr(u + 1)), adjW(u))
      }
    }, minSuccessful = 300)
  }
}
