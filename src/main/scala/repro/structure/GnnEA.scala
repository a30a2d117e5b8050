package repro.structure

import repro.embed.VecOps
import repro.kg.Graph

/** Training-free GNN-style EA embeddings (structure channel model).
  *
  * Stands in for the gradient-trained GCN-Align / RREA variants (see
  * DESIGN.md §2). Each seed pair (s, t) receives one shared random anchor
  * vector on both sides; L rounds of symmetric degree-normalized neighbour
  * aggregation propagate the anchors through each KG independently:
  *
  *   h⁰(e)   = anchor(e) + ε·noise(e)
  *   hˡ(e)   = cap( α·hˡ⁻¹(e) + Σ_{(e,r,u)} w_r/√(d_e·d_u) · hˡ⁻¹(u) )
  *   final e = normalize( concat(h⁰(e) … h^L(e)) )      (RREA-style)
  *
  * Equivalent entities whose neighbourhoods contain the same seeds end up
  * with similar aggregates — exactly the fixed point the triplet loss pulls
  * GNN EA models toward. The two configs mirror the two models the paper
  * plugs in:
  *  - GCN  (GCN-Align variant): 2 layers, uniform relation weights, final
  *    layer only (vanilla GCN has no relation modelling / no concat);
  *  - RREA: 3 layers, inverse-log relation-frequency weights (a cheap
  *    stand-in for relational reflection) and layer concatenation.
  *
  * `layer` over a `Graph` from `Graph.fromTriples` is the one propagation
  * step of the program: RDGCN-lite (`repro.baselines.Baselines.rdgcn`)
  * runs on it too.
  */
object GnnEA {

  /** Embedding width of every layer. */
  val Dim = 48
  /** α, the weight of a vertex's own previous-layer vector. */
  private val SelfWeight = 1.0f
  /** ε, the scale of the per-side noise in layer 0. */
  private val NoiseEps = 0.02f

  /** Model configuration. */
  final case class Config(
      name: String,
      layers: Int,
      relWeighted: Boolean,
      concatLayers: Boolean,
      bootstrapRounds: Int = 0) // self-training: mutual-NN pairs → new anchors

  /** The GCN-Align-like variant. */
  val Gcn: Config = Config("GCN", layers = 2, relWeighted = false, concatLayers = false)

  /** The RREA-like variant (stronger: more hops, relation weighting,
    * multi-scale concat, two bootstrap rounds — RREA trains iteratively
    * with self-sampled pairs).
    */
  val Rrea: Config = Config("RREA", layers = 3, relWeighted = true,
    concatLayers = true, bootstrapRounds = 2)

  /** The model's adjacency for one KG (or subgraph) with local ids
    * 0..n-1: edge weight w_r/√(d_h·d_t), where w_r = 1/ln(2 + |r|) for a
    * relation-weighted model (|r| the triples of relation r, self-loops
    * included) and 1 otherwise, over `triples` laid out as `KG.triplesArray`.
    */
  def adjacency(n: Int, triples: Array[Int], cfg: Config): Graph = {
    val rels = Array.range(1, triples.length, 3).map(triples(_))
    val relFreq = new Array[Int](rels.maxOption.fold(0)(_ + 1))
    rels.foreach(relFreq(_) += 1)
    Graph.fromTriples(n, triples) { (r, norm) =>
      (if (cfg.relWeighted) (1.0 / math.log(2.0 + relFreq(r))).toFloat else 1.0f) / norm.toFloat
    }
  }

  /** One propagation step: `selfWeight·h(e) + Σ w·h(u)` over the
    * neighbours u of each vertex e, summed in neighbour order.
    */
  def layer(adj: Graph, h: Array[Array[Float]], selfWeight: Float): Array[Array[Float]] =
    Array.tabulate(adj.n) { e =>
      val acc = new Array[Float](h(e).length)
      VecOps.axpy(acc, selfWeight, h(e))
      var j = adj.ptr(e)
      while (j < adj.ptr(e + 1)) { VecOps.axpy(acc, adj.w(j).toFloat, h(adj.nbr(j))); j += 1 }
      acc
    }

  /** The layer-0 noise of `n` entities of one side: it depends only on
    * `sideSalt`, distinct per side so the noise is uncorrelated, and on the
    * local id, so one draw serves every `embed` of that side.
    */
  def noise(n: Int, sideSalt: Long): Array[Array[Float]] =
    Array.tabulate(n)(e => VecOps.hashGaussian(sideSalt ^ (e * 0x7f4a7c15L + 0x1234), Dim))

  /** Compute embeddings for one KG (or subgraph).
    *
    * @param adj     the graph, from `adjacency` with the same `cfg`
    * @param anchors local entity id -> shared anchor seed (same value on
    *                both sides of a seed pair), or -1 for an entity
    *                without a seed
    * @param noise   the side's layer-0 noise, from `noise`; not modified
    */
  def embed(adj: Graph, anchors: Array[Long], noise: Array[Array[Float]], cfg: Config): Array[Array[Float]] = {
    // ---- layer 0: anchors + tiny deterministic noise ----------------------
    // Seeded entities start at their (unit-norm) shared anchor; unseeded
    // entities start at ε-scale noise. Normalizing the unseeded vectors
    // here would inflate the noise to the anchors' magnitude and drown the
    // alignment signal — only the seeded vectors are re-normalized.
    val h0 = Array.tabulate(adj.n) { e =>
      if (anchors(e) >= 0) {
        val v = VecOps.hashGaussian(0x51ed270b ^ anchors(e) * 0x9e3779b9L, Dim)
        VecOps.axpy(v, NoiseEps, noise(e))
        VecOps.normalize(v)
      } else VecOps.normalize(noise(e).clone()).map(x => x * NoiseEps)
    }

    // ---- propagation: h⁰ … h^L ----------------------------------------------
    // cap, don't normalize: inflating a weak-signal vector to unit norm
    // would turn noise into (fake) signal for the next hop
    val hs = Iterator.iterate(h0)(h => layer(adj, h, SelfWeight).map(VecOps.capNorm(_)))
      .take(cfg.layers + 1).toArray

    // ---- output: concat layers (RREA) or final layer (GCN), unit-norm ----
    if (cfg.concatLayers) Array.tabulate(adj.n)(e => VecOps.normalize(VecOps.flatten(hs.map(_(e)))))
    else hs.last.map(VecOps.normalize(_))
  }
}
