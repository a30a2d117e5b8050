package repro.memmodel

/** Analytic GPU / CPU memory model for the Mem. columns of Tables 2/3/6.
  *
  * We have no GPU, so memory is modeled, not measured (DESIGN.md §2): each
  * method's footprint is a function of the *paper-scale* dataset sizes the
  * lite dataset represents. Constants are calibrated against anchors the
  * paper reports (noted per method below); the purpose is to reproduce the
  * memory *shape*: LargeEA ≈ 9× smaller than BERT-INT, full-graph RREA OOM
  * at 100K entities, all competitors OOM on DBP1M, BERT-INT's ≫128 GB RAM
  * need at 1M entities.
  *
  * A model "fails" (the paper's "-" cells) when modeled GPU memory exceeds
  * the RTX3090's 24 GB or modeled host RAM exceeds the testbed's 128 GB.
  */
object MemModel {

  val GpuBudgetBytes: Double = 24e9  // NVIDIA RTX 3090
  val RamBudgetBytes: Double = 128e9 // testbed RAM

  /** Paper-scale shape of a dataset (what a lite dataset represents). */
  final case class Scale(srcEnts: Long, tgtEnts: Long, srcTriples: Long, tgtTriples: Long) {
    def ents: Long = srcEnts + tgtEnts
  }

  final case class Footprint(gpuBytes: Double, ramBytes: Double) {
    def gpuGB: Double = gpuBytes / 1e9
    def ramGB: Double = ramBytes / 1e9
    def oom: Boolean = gpuBytes > GpuBudgetBytes || ramBytes > RamBudgetBytes
    def prettyGpu: String = if (oom) "-" else f"$gpuGB%.2fG"
  }

  // ---- competitors ---------------------------------------------------------

  /** GCN-Align: embeddings + sparse adjacency on the GPU.
    * Anchors: 0.13 GB @30K ents, 1.00 GB @200K (Table 2) → ≈4.8 KB/entity.
    * Inference materializes the dense |Es|×|Et| similarity matrix on the
    * host (float32) — negligible at IDS scales, fatal at DBP1M, which is
    * why the paper could not run it there.
    */
  def gcnAlign(s: Scale): Footprint =
    Footprint(
      gpuBytes = 4800.0 * s.ents,
      ramBytes = 2e9 + 1000.0 * s.ents + 4.0 * s.srcEnts.toDouble * s.tgtEnts)

  /** MultiKE: multiple views ⇒ large fixed model + per-entity cost.
    * Anchors: 6.52 GB @30K, 16.08 GB @200K → fixed ≈4.8 GB + 56 KB/entity.
    */
  def multiKe(s: Scale): Footprint =
    Footprint(gpuBytes = 4.8e9 + 56200.0 * s.ents, ramBytes = 4e9 + 2000.0 * s.ents)

  /** RDGCN: dual graph convolution.
    * Anchors: 8.02 GB @30K, 16.02 GB @200K → fixed ≈6.6 GB + 47 KB/entity.
    */
  def rdgcn(s: Scale): Footprint =
    Footprint(gpuBytes = 6.6e9 + 47000.0 * s.ents, ramBytes = 4e9 + 2000.0 * s.ents)

  /** RREA: relational-reflection attention keeps large per-entity state
    * (multi-layer activations + gradients + reflection matrices) ⇒ a steep
    * *linear* per-entity cost. Anchors from Tables 2/6: 4.07 GB @30K ents
    * (full 15K pair), "-" at 200K (26 GB > 24 GB), 21.15 GB at the DBP1M
    * EN-FR batch scale (≈162K ents with K=20) → ≈130 KB/entity.
    * Inference needs the dense host-side similarity matrix like GCN-Align.
    */
  def rrea(s: Scale): Footprint =
    Footprint(
      gpuBytes = 0.15e9 + 130000.0 * s.ents,
      ramBytes = 2e9 + 1000.0 * s.ents + 4.0 * s.srcEnts.toDouble * s.tgtEnts)

  /** BERT-INT: fixed BERT footprint on GPU (14.07 GB at the paper's batch
    * settings), but host RAM grows ≈300 KB/entity (7 GB @30K, 58 GB @200K;
    * the paper extrapolates ≥580 GB at DBP1M — our model yields ~1 TB).
    */
  def bertInt(s: Scale): Footprint =
    Footprint(gpuBytes = 14.07e9, ramBytes = 300000.0 * s.ents)

  // ---- LargeEA -------------------------------------------------------------

  /** Name channel: BERT inference workspace + pooled embeddings.
    * Anchors: 1.54 GB @30K, 1.74 GB @200K, 4.6–7.4 GB @DBP1M (Table 6).
    */
  def nameChannel(s: Scale): Footprint =
    Footprint(gpuBytes = 1.5e9 + 1600.0 * s.ents, ramBytes = 2e9 + 3000.0 * s.ents)

  /** Structure channel with K mini-batches, for the structure model's
    * footprint `model` (`rrea` or `gcnAlign`): the GPU holds one batch at a
    * time, so the quadratic/linear terms shrink by K² / K. K = 1 is the
    * "w/o partition" column of Table 6.
    */
  def structChannel(model: Scale => Footprint, s: Scale, k: Int): Footprint = {
    val base = model(Scale(s.srcEnts / k, s.tgtEnts / k, s.srcTriples / k, s.tgtTriples / k))
    // fixed CUDA context / framework workspace per training run
    Footprint(base.gpuBytes + 0.2e9, base.ramBytes)
  }

  /** Whole-pipeline LargeEA footprint: peak of its two channels (they run
    * sequentially; the GPU is released between phases).
    */
  def largeEa(model: Scale => Footprint, s: Scale, k: Int): Footprint = {
    val nc = nameChannel(s)
    val sc = structChannel(model, s, k)
    Footprint(math.max(nc.gpuBytes, sc.gpuBytes), math.max(nc.ramBytes, sc.ramBytes))
  }
}
