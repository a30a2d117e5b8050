package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.Baselines
import repro.eval.EaScores
import repro.kg.EaDataset
import repro.largeea.LargeEA
import repro.memmodel.MemModel
import repro.partition.{MetisCps, PartitionStrategy, Vps}
import repro.structure.GnnEA

/** Harnesses that regenerate each table of the paper's evaluation section.
  * Shared by the spark-submit entrypoints in jobs/ and by the bench suites
  * (which also assert the paper's qualitative shape).
  */
object Tables {

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

  def renderTable1(rows: Seq[Table1Row]): String = {
    val header = f"${"Dataset"}%-16s ${"#Entities"}%-16s ${"#Relations"}%-12s ${"#Triples"}%-16s"
    val body = rows.map { r =>
      f"${r.dataset}%-16s ${s"${r.srcEnts}-${r.tgtEnts}"}%-16s ${s"${r.srcRels}-${r.tgtRels}"}%-12s ${s"${r.srcTriples}-${r.tgtTriples}"}%-16s"
    }
    (header +: body).mkString("\n")
  }

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

  def renderEaRows(rows: Seq[EaRow]): String = {
    val header = f"${"Dataset"}%-16s ${"Method"}%-22s ${"H@1"}%6s ${"H@5"}%6s ${"MRR"}%6s ${"Time(s)"}%9s ${"Mem."}%8s"
    val body = rows.map { r =>
      if (r.oom)
        f"${r.dataset}%-16s ${r.method}%-22s ${"-"}%6s ${"-"}%6s ${"-"}%6s ${"-"}%9s ${"-"}%8s"
      else
        f"${r.dataset}%-16s ${r.method}%-22s ${r.h1 * 100}%6.1f ${r.h5 * 100}%6.1f ${r.mrr}%6.2f ${r.seconds}%9.1f ${r.mem}%8s"
    }
    (header +: body).mkString("\n")
  }

  private def eaRow(ds: String, method: String, s: EaScores, secs: Double, mem: String) =
    EaRow(ds, method, s.hits1, s.hits5, s.mrr, secs, mem)

  private def oomRow(ds: String, method: String) =
    EaRow(ds, method, 0, 0, 0, 0, "-", oom = true)

  /** LargeEA pipeline time = everything except evaluation. */
  private def pipelineSeconds(r: LargeEA.Result): Double =
    r.timings.filterNot { case (k, _) => k == "eval" }.values.sum

  /** The four LargeEA variants (G/R × EN→L / L→EN) on one dataset: the
    * table label, the structure model and the run's result.
    */
  def largeEaVariants(
      spark: SparkSession, spec: Datasets.Spec,
      unsupervised: Boolean = false): Seq[(String, GnnEA.Config, LargeEA.Result)] = {
    val fwd = Datasets.get(spark, spec)
    val base = LargeEA.Config(k = spec.k, unsupervised = unsupervised)
    for {
      (model, tag) <- Seq((GnnEA.Gcn, "G"), (GnnEA.Rrea, "R"))
      (ds, dir) <- Seq((fwd, "EN->L"), (fwd.reversed, "L->EN"))
    } yield (s"LargeEA-$tag $dir", model, LargeEA.run(spark, ds, base.copy(model = model)))
  }

  /** Table rows of LargeEA variants: pipeline seconds, and the memory
    * modeled for the variant's structure model at the represented scale.
    */
  private def largeEaRows(
      spec: Datasets.Spec, variants: Seq[(String, GnnEA.Config, LargeEA.Result)]): Seq[EaRow] =
    variants.map { case (method, model, res) =>
      val fp = MemModel.largeEa(model.name, spec.represented, spec.k)
      eaRow(spec.key, method, res.scores, pipelineSeconds(res), fp.prettyGpu)
    }

  /** Table 2: competitors + LargeEA variants on the four IDS datasets. */
  def table2(spark: SparkSession): Seq[EaRow] =
    Datasets.idsSpecs.flatMap(spec => table2ForSpec(spark, spec))

  /** The paper's five competitors: name, modeled memory at a scale, runner. */
  private val competitors
      : Seq[(String, MemModel.Scale => MemModel.Footprint, (SparkSession, EaDataset) => Baselines.RunResult)] = Seq(
    ("GCNAlign", MemModel.gcnAlign, Baselines.gcnAlign(_, _)),
    ("MultiKE",  MemModel.multiKe,  Baselines.multiKe(_, _)),
    ("RDGCN",    MemModel.rdgcn,    Baselines.rdgcn(_, _)),
    ("RREA",     MemModel.rrea,     Baselines.rrea(_, _)),
    ("BERT-INT", MemModel.bertInt,  Baselines.bertInt(_, _)))

  def table2ForSpec(spark: SparkSession, spec: Datasets.Spec): Seq[EaRow] = {
    val ds = Datasets.get(spark, spec)
    val compRows = competitors.map { case (name, footprint, runIt) =>
      val fp = footprint(spec.represented)
      if (fp.oom) oomRow(spec.key, name)
      else {
        val r = runIt(spark, ds)
        eaRow(spec.key, name, r.scores, r.seconds, fp.prettyGpu)
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
      variants.headOption.foreach { case (_, _, res) =>
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

  def renderTable5(rows: Seq[Table5Row]): String = {
    val header = f"${"Dataset"}%-16s ${"Method"}%-10s ${"Dir"}%-7s ${"Total"}%7s ${"Train"}%7s ${"Test"}%7s"
    val body = rows.map { r =>
      f"${r.dataset}%-16s ${r.method}%-10s ${r.direction}%-7s ${r.total * 100}%7.1f ${r.train * 100}%7.1f ${r.test * 100}%7.1f"
    }
    (header +: body).mkString("\n")
  }

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

  def renderTable6(rows: Seq[Table6Row]): String = {
    val header = f"${"Dataset"}%-16s ${"Setting"}%-8s ${"NameCh"}%8s ${"LargeEA-R"}%14s ${"LargeEA-G"}%14s"
    val body = rows.map { r =>
      f"${r.dataset}%-16s ${r.setting}%-8s ${r.nameChannel}%8s ${r.structR}%14s ${r.structG}%14s"
    }
    (header +: body).mkString("\n")
  }

  def table6(): Seq[Table6Row] =
    Datasets.all.flatMap { spec =>
      Seq("EN->L", "L->EN").map { dir =>
        val s0 = spec.represented
        val s = if (dir == "EN->L") s0
                else MemModel.Scale(s0.tgtEnts, s0.srcEnts, s0.tgtTriples, s0.srcTriples)
        def pair(model: String): String = {
          val cps = MemModel.structChannel(model, s, spec.k)
          val noPart = MemModel.structChannel(model, s, 1)
          s"${cps.prettyGpu}/${noPart.prettyGpu}"
        }
        Table6Row(spec.key, dir,
          MemModel.nameChannel(s).prettyGpu, pair("RREA"), pair("GCN"))
      }
    }
}
