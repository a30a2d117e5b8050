package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.Baselines
import repro.eval.{EaScores, Metrics}
import repro.kg.{EaDataset, KGGen}
import repro.largeea.LargeEA
import repro.memmodel.MemModel
import repro.partition.{MetisCps, PartitionStrategy, Vps}
import repro.sim.SimMatrix
import repro.structure.GnnEA

/** Harnesses that regenerate each table of the paper's evaluation section:
  * the one place that times, scores and renders a table row. Shared by the
  * spark-submit entrypoint in jobs/ and by the bench suites (which also
  * assert the paper's qualitative shape).
  */
object Tables {

  /** Fixed-width grid: a header line, then one line per row, cells joined
    * by one space. Each column is (header, width); a negative width
    * left-aligns, as `%-Ns` does. A cell wider than its column is kept whole.
    */
  private def grid(cols: Seq[(String, Int)], rows: Seq[Seq[String]]): String =
    (cols.map(_._1) +: rows).map { cells =>
      cells.lazyZip(cols).map { case (cell, (_, w)) => s"%${w}s".format(cell) }.mkString(" ")
    }.mkString("\n")

  // -------------------------------------------------------------------------
  // Table 1 — dataset statistics
  // -------------------------------------------------------------------------

  final case class Table1Row(
      dataset: String, srcEnts: Long, tgtEnts: Long,
      srcRels: Long, tgtRels: Long, srcTriples: Long, tgtTriples: Long)

  def table1(spark: SparkSession): Seq[Table1Row] =
    Datasets.all.map { spec =>
      val ds = Datasets.get(spark, spec)
      Table1Row(spec.key,
        ds.source.numEntities, ds.target.numEntities,
        ds.source.numRelations, ds.target.numRelations,
        ds.source.numTriples, ds.target.numTriples)
    }

  def renderTable1(rows: Seq[Table1Row]): String =
    grid(Seq("Dataset" -> -16, "#Entities" -> -16, "#Relations" -> -12, "#Triples" -> -16),
      rows.map(r => Seq(r.dataset, s"${r.srcEnts}-${r.tgtEnts}", s"${r.srcRels}-${r.tgtRels}",
        s"${r.srcTriples}-${r.tgtTriples}")))

  // -------------------------------------------------------------------------
  // Tables 2/3/4 — overall EA rows
  // -------------------------------------------------------------------------

  /** One EA result row: H@1/H@5 in percent, MRR, wall seconds (lite scale),
    * modeled GPU memory (represented scale; "-" = OOM, method not runnable).
    */
  final case class EaRow(
      dataset: String, method: String,
      h1: Double, h5: Double, mrr: Double,
      seconds: Double, mem: String, oom: Boolean = false)

  def renderEaRows(rows: Seq[EaRow]): String =
    grid(Seq("Dataset" -> -16, "Method" -> -22, "H@1" -> 6, "H@5" -> 6, "MRR" -> 6, "Time(s)" -> 9, "Mem." -> 8),
      rows.map { r =>
        if (r.oom) Seq(r.dataset, r.method, "-", "-", "-", "-", "-")
        else Seq(r.dataset, r.method, f"${r.h1 * 100}%.1f", f"${r.h5 * 100}%.1f", f"${r.mrr}%.2f",
          f"${r.seconds}%.1f", r.mem)
      })

  private def eaRow(ds: String, method: String, s: EaScores, secs: Double, mem: String) =
    EaRow(ds, method, s.hits1, s.hits5, s.mrr, secs, mem)

  private def oomRow(ds: String, method: String) =
    EaRow(ds, method, 0, 0, 0, 0, "-", oom = true)

  /** LargeEA pipeline time = everything except evaluation. */
  private def pipelineSeconds(r: LargeEA.Result): Double =
    r.timings.filterNot { case (k, _) => k == "eval" }.values.sum

  /** The paper's five competitors: name, modeled memory at a scale, and the
    * runner that builds the competitor's similarity matrix.
    */
  private val competitors
      : Seq[(String, MemModel.Scale => MemModel.Footprint, (SparkSession, EaDataset) => SimMatrix)] = Seq(
    ("GCNAlign", MemModel.gcnAlign, Baselines.gcnAlign(_, _)),
    ("MultiKE",  MemModel.multiKe,  Baselines.multiKe(_, _)),
    ("RDGCN",    MemModel.rdgcn,    Baselines.rdgcn(_, _)),
    ("RREA",     MemModel.rrea,     Baselines.rrea(_, _)),
    ("BERT-INT", MemModel.bertInt,  Baselines.bertInt(_, _)))

  /** LargeEA's two structure models: table tag, GNN config, and the modeled
    * footprint of the model the structure channel trains.
    */
  private val structureModels: Seq[(String, GnnEA.Config, MemModel.Scale => MemModel.Footprint)] = Seq(
    ("G", GnnEA.Gcn,  MemModel.gcnAlign),
    ("R", GnnEA.Rrea, MemModel.rrea))

  private var warmedUp = false

  /** Runs every timed method (the five competitors and LargeEA-G/R) once,
    * untimed, on `Datasets.tiny()`, the first time this JVM times a table
    * row, so that no Time(s) cell pays for JVM and Spark warm-up.
    */
  private def warmUp(spark: SparkSession): Unit = synchronized {
    if (!warmedUp) {
      val ds = KGGen.generate(spark, Datasets.tiny())
      competitors.foreach { case (_, _, runIt) => runIt(spark, ds) }
      structureModels.foreach { case (_, model, _) => LargeEA.run(spark, ds, LargeEA.Config(model = model, k = 3)) }
      warmedUp = true
    }
  }

  /** `f`'s result and its wall seconds, timed after the warm-up. */
  private def timed[T](spark: SparkSession)(f: => T): (T, Double) = {
    warmUp(spark)
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** The four LargeEA variants (G/R × EN→L / L→EN) on one dataset: the
    * table label, the structure model, its modeled footprint and the run's
    * result. Each run's time is its own `pipelineSeconds`, after the warm-up.
    */
  def largeEaVariants(
      spark: SparkSession, spec: Datasets.Spec, unsupervised: Boolean = false)
      : Seq[(String, GnnEA.Config, MemModel.Scale => MemModel.Footprint, LargeEA.Result)] = {
    warmUp(spark)
    val fwd = Datasets.get(spark, spec)
    val base = LargeEA.Config(k = spec.k, unsupervised = unsupervised)
    for {
      (tag, model, footprint) <- structureModels
      (ds, dir) <- Seq((fwd, "EN->L"), (fwd.reversed, "L->EN"))
    } yield (s"LargeEA-$tag $dir", model, footprint, LargeEA.run(spark, ds, base.copy(model = model)))
  }

  /** Table rows of LargeEA variants: pipeline seconds, and the memory
    * modeled for the variant's structure model at the represented scale.
    */
  private def largeEaRows(
      spec: Datasets.Spec,
      variants: Seq[(String, GnnEA.Config, MemModel.Scale => MemModel.Footprint, LargeEA.Result)]): Seq[EaRow] =
    variants.map { case (method, _, footprint, res) =>
      val fp = MemModel.largeEa(footprint, spec.represented, spec.k)
      eaRow(spec.key, method, res.scores, pipelineSeconds(res), fp.prettyGpu)
    }

  /** Table 2: competitors + LargeEA variants on the four IDS datasets. */
  def table2(spark: SparkSession): Seq[EaRow] =
    Datasets.idsSpecs.flatMap(spec => table2ForSpec(spark, spec))

  /** One dataset's Table 2 rows. A competitor's time is the time to build
    * its similarity matrix; its scores are that matrix's, on the test pairs.
    */
  def table2ForSpec(spark: SparkSession, spec: Datasets.Spec): Seq[EaRow] = {
    val ds = Datasets.get(spark, spec)
    val compRows = competitors.map { case (name, footprint, runIt) =>
      val fp = footprint(spec.represented)
      if (fp.oom) oomRow(spec.key, name)
      else {
        val (sim, secs) = timed(spark)(runIt(spark, ds))
        eaRow(spec.key, name, Metrics.evaluate(sim, ds.testPairs), secs, fp.prettyGpu)
      }
    }

    compRows ++ largeEaRows(spec, largeEaVariants(spark, spec))
  }

  // Table 3 is consumed twice per bench run (its own bench + the
  // supervised-vs-unsupervised comparison in Table 4); cache per JVM.
  private var table3Cache: Option[(Seq[EaRow], Seq[EaRow])] = None

  /** Table 3: LargeEA variants on DBP1M (supervised); competitors are OOM
    * under the memory model, as in the paper.
    */
  def table3(spark: SparkSession): (Seq[EaRow], Seq[EaRow]) = synchronized {
    table3Cache match {
      case Some(r) => r
      case None =>
        val r = computeTable3(spark)
        table3Cache = Some(r)
        r
    }
  }

  private def computeTable3(spark: SparkSession): (Seq[EaRow], Seq[EaRow]) = {
    val largeRows = Datasets.dbpSpecs.flatMap(spec => largeEaRows(spec, largeEaVariants(spark, spec)))
    // competitors: all OOM at DBP1M scale — rows of dashes, as in the paper
    val competitorOom = Datasets.dbpSpecs.flatMap { spec =>
      competitors.map { case (m, footprint, _) =>
        require(footprint(spec.represented).oom, s"$m fits in memory at ${spec.key} scale, but Table 3 does not run competitors")
        oomRow(spec.key, m)
      }
    }
    (largeRows, competitorOom)
  }

  /** Table 4: unsupervised EA on DBP1M + the §3.5 DA statistics. */
  final case class DaStat(dataset: String, pseudoSeeds: Int, precision: Double)

  def table4(spark: SparkSession): (Seq[EaRow], Seq[DaStat]) = {
    var stats = Vector.empty[DaStat]
    val rows = Datasets.dbpSpecs.flatMap { spec =>
      val variants = largeEaVariants(spark, spec, unsupervised = true)
      // DA stats are direction/model independent (derived from Mn of EN→L)
      variants.headOption.foreach { case (_, _, _, res) =>
        stats :+= DaStat(spec.key, res.pseudoSeedCount, res.pseudoSeedPrecision)
      }
      largeEaRows(spec, variants)
    }
    (rows, stats)
  }

  // -------------------------------------------------------------------------
  // Table 5 — partition quality
  // -------------------------------------------------------------------------

  final case class Table5Row(
      dataset: String, method: String, direction: String,
      total: Double, train: Double, test: Double)

  def renderTable5(rows: Seq[Table5Row]): String =
    grid(Seq("Dataset" -> -16, "Method" -> -10, "Dir" -> -7, "Total" -> 7, "Train" -> 7, "Test" -> 7),
      rows.map(r => Seq(r.dataset, r.method, r.direction,
        f"${r.total * 100}%.1f", f"${r.train * 100}%.1f", f"${r.test * 100}%.1f")))

  def table5(spark: SparkSession): Seq[Table5Row] =
    Datasets.all.flatMap(spec => table5ForSpec(spark, spec))

  def table5ForSpec(spark: SparkSession, spec: Datasets.Spec): Seq[Table5Row] = {
    val fwd = Datasets.get(spark, spec)
    val strategies: Seq[PartitionStrategy] = Seq(MetisCps, Vps)
    for {
      strat <- strategies
      (ds, dir) <- Seq((fwd, "EN->L"), (fwd.reversed, "L->EN"))
    } yield {
      val b = strat.partition(ds, spec.k, ds.trainPairs, seed = 7L)
      Table5Row(spec.key, strat.name, dir,
        b.colocationRate(ds.truthPairs),
        b.colocationRate(ds.trainPairs),
        b.colocationRate(ds.testPairs))
    }
  }

  // -------------------------------------------------------------------------
  // Table 6 — GPU memory usage of LargeEA (modeled)
  // -------------------------------------------------------------------------

  final case class Table6Row(
      dataset: String, setting: String,
      nameChannel: String, structR: String, structG: String)

  def renderTable6(rows: Seq[Table6Row]): String =
    grid(Seq("Dataset" -> -16, "Setting" -> -8, "NameCh" -> 8, "LargeEA-R" -> 14, "LargeEA-G" -> 14),
      rows.map(r => Seq(r.dataset, r.setting, r.nameChannel, r.structR, r.structG)))

  def table6(): Seq[Table6Row] =
    Datasets.all.flatMap { spec =>
      Seq("EN->L", "L->EN").map { dir =>
        val s0 = spec.represented
        val s = if (dir == "EN->L") s0
                else MemModel.Scale(s0.tgtEnts, s0.srcEnts, s0.tgtTriples, s0.srcTriples)
        def pair(model: MemModel.Scale => MemModel.Footprint): String = {
          val cps = MemModel.structChannel(model, s, spec.k)
          val noPart = MemModel.structChannel(model, s, 1)
          s"${cps.prettyGpu}/${noPart.prettyGpu}"
        }
        Table6Row(spec.key, dir,
          MemModel.nameChannel(s).prettyGpu, pair(MemModel.rrea), pair(MemModel.gcnAlign))
      }
    }
}
