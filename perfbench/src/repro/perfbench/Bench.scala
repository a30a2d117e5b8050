package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.exp.Datasets
import repro.kg.{EaDataset, KGGen}
import repro.largeea.LargeEA
import repro.structure.GnnEA

/** A benchmark workload: a dataset and a pipeline config, both built from
  * the workload seed.
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    data: Long => KGGen.Config,
    pipeline: Long => LargeEA.Config)

object Workload {
  private val dbp = Datasets.Dbp1mEnFr.cfg
  private val ids = Datasets.Ids100kEnFr.cfg

  val all: Seq[Workload] = Seq(
    Workload("dbp1m-enfr-rrea", dbp.seed,
      s => dbp.copy(seed = s),
      s => LargeEA.Config(model = GnnEA.Rrea, k = 20, seed = s)),
    // Every size knob x4, and K x4 so that a mini-batch is as large as at x1
    // (the paper's fixed-batch-memory rule). Structure channel only.
    Workload("dbp1m-enfr-x4-struct", dbp.seed,
      s => dbp.copy(name = "DBP1M-EN-FR-x4", nCore = dbp.nCore * 4,
        nSrcExtra = dbp.nSrcExtra * 4, nTgtExtra = dbp.nTgtExtra * 4,
        communities = dbp.communities * 4, seed = s),
      s => LargeEA.Config(model = GnnEA.Rrea, k = 80,
        useNameChannel = false, useDataAug = false, seed = s)),
    Workload("ids100k-enfr-gcn", ids.seed,
      s => ids.copy(seed = s),
      s => LargeEA.Config(model = GnnEA.Gcn, k = 10, seed = s)),
    // For the harness self-test only.
    Workload("tiny", 9L,
      s => Datasets.tiny(s),
      s => LargeEA.Config(model = GnnEA.Rrea, seed = s)))
}

/** The LargeEA benchmark harness. One process runs one workload:
  *
  *  1. set-up: generate the dataset, cache and materialise its DataFrames;
  *  2. one cold, untimed `LargeEA.run` (the warm-up), then `SetupReps - 1`
  *     more set-ups (`setup_s` is the median of all set-ups);
  *  3. timed `LargeEA.run` calls for `--seconds` (`align_s` is the median);
  *     with `--trace 1` each is followed by a traced replay of the
  *     pipeline, which gives the per-layer metrics (medians over replays).
  *
  * Every repetition starts from the same state: the run's cached matrices
  * are dropped, the dataset's DataFrames are cached again and the JVM is
  * collected. Every result is checked against the first run; a mismatch is
  * a failed operation. The last stdout line is the JSON result.
  */
object Bench {

  val SetupReps = 7
  val WarmupReps = 1 // the cold first run
  val ShufflePartitions = 8
  val MaxCores = 4
  private val MB = 1e6

  final case class Args(workload: String, seed: Option[Long], seconds: Double, trace: Boolean, outDir: String)

  private def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    Args(m("workload"), m.get("seed").map(_.toLong), m.getOrElse("seconds", "10").toDouble,
      m.getOrElse("trace", "0") == "1", m.getOrElse("out-dir", "."))
  }

  def storedBytes(spark: SparkSession): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  /** MRR is a floating-point sum whose order Spark does not fix. */
  def sameMrr(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private def frames(ds: EaDataset) = Seq(
    ds.source.entities, ds.source.triples, ds.target.entities, ds.target.triples,
    ds.truth, ds.train, ds.test)

  /** Caches and counts the dataset's DataFrames; returns the counts. */
  private def materialise(ds: EaDataset): Seq[Long] = frames(ds).map { df => df.cache(); df.count() }

  /** Drop everything cached, cache the dataset again and collect the JVM. */
  private def reset(spark: SparkSession, ds: EaDataset): Unit = {
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    materialise(ds)
    System.gc()
  }

  /** Row counts of `frames` against the generator config; the triple
    * counts, which the config does not fix, against `triples`.
    */
  private def countProblems(counts: Seq[Long], cfg: KGGen.Config, triples: (Long, Long)): Seq[String] = {
    val nTrain = (cfg.nCore * cfg.seedRatio).toInt
    val Seq(es, ts, et, tt, truth, train, test) = counts
    Seq(
      "|Es|" -> (es == cfg.nCore + cfg.nSrcExtra),
      "|Et|" -> (et == cfg.nCore + cfg.nTgtExtra),
      "|Ts|, |Tt| as in the first set-up" -> ((ts, tt) == triples),
      "|truth|" -> (truth == cfg.nCore),
      "|train|" -> (train == nTrain),
      "|test|" -> (test == cfg.nCore - nTrain),
    ).collect { case (what, false) => s"dataset check failed: $what" }
  }

  private def resultProblems(r: LargeEA.Result, ref: LargeEA.Result): Seq[String] = Seq(
    "H@1" -> (r.scores.hits1 == ref.scores.hits1),
    "H@5" -> (r.scores.hits5 == ref.scores.hits5),
    "MRR" -> sameMrr(r.scores.mrr, ref.scores.mrr),
    "pseudo-seed count" -> (r.pseudoSeedCount == ref.pseudoSeedCount),
  ).collect { case (what, false) => s"run differs from the first run: $what" }

  def main(argv: Array[String]): Unit =
    try run(parse(argv))
    catch {
      case e: Throwable =>
        e.printStackTrace()
        sys.exit(1) // also ends Spark's non-daemon threads
    }

  private def run(args: Args): Unit = {
    val wl = Workload.all.find(_.name == args.workload).getOrElse {
      Console.err.println(s"unknown workload ${args.workload}; known: ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = args.seed.getOrElse(wl.defaultSeed)
    val genCfg = wl.data(seed)
    val cfg = wl.pipeline(seed)
    val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors)

    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.ui.enabled", false)
      .config("spark.ui.showConsoleProgress", false)
      .config("spark.local.dir", Paths.get(args.outDir, "spark-local").toAbsolutePath.toString)
      .getOrCreate()

    val heapMb = Runtime.getRuntime.maxMemory / (1L << 20)
    println(s"settings: workload=${wl.name} seed=$seed master=local[$cores] " +
      s"shuffle.partitions=$ShufflePartitions heap=${heapMb}MiB processes=1 loop=closed " +
      s"setups=$SetupReps warmups=$WarmupReps seconds=${args.seconds} trace=${if (args.trace) 1 else 0}")

    var attempted = 0
    var failed = 0
    def attempt(problems: Seq[String]): Unit = {
      attempted += 1
      if (problems.nonEmpty) failed += 1
      problems.foreach(p => println(s"FAILED: $p"))
    }

    // ---- set-up and warm-up ----------------------------------------------------
    var triples: Option[(Long, Long)] = None
    def setUp(i: Int): (EaDataset, Double, Double) = {
      spark.catalog.clearCache()
      val t0 = System.nanoTime()
      val ds = KGGen.generate(spark, genCfg)
      val gen = secondsSince(t0)
      val counts = materialise(ds)
      val total = secondsSince(t0)
      println(f"setup $i: generate $gen%.3f s, with caching $total%.3f s")
      if (triples.isEmpty) triples = Some((counts(1), counts(3)))
      val disjoint = ds.testPairs.toSet.intersect(ds.trainPairs.toSet).isEmpty
      attempt(countProblems(counts, genCfg, triples.get) ++
        (if (disjoint) Nil else Seq("dataset check failed: train and test disjoint")))
      (ds, gen, total)
    }

    def runOnce(ds: EaDataset): (Double, Double, LargeEA.Result) = {
      reset(spark, ds)
      val before = storedBytes(spark)
      val t0 = System.nanoTime()
      val r = LargeEA.run(spark, ds, cfg)
      val secs = secondsSince(t0)
      (secs, (storedBytes(spark) - before) / MB, r)
    }

    // The first set-up and the first run are cold. The other set-ups follow
    // the cold run, so that the set-up median is a warm one.
    val firstSetup = setUp(1)
    val (firstSecs, _, ref) = runOnce(firstSetup._1)
    attempt(Nil)
    println(f"run 1 (cold warm-up, untimed): $firstSecs%.3f s  fused ${ref.scores.pretty} " +
      s"pseudo seeds ${ref.pseudoSeedCount}")
    val setups = firstSetup +: (2 to SetupReps).map(setUp)
    val ds = setups.last._1
    println(s"dataset ${genCfg.name}: |Es|=${ds.source.numEntities} |Et|=${ds.target.numEntities} " +
      s"|Ts|=${ds.source.numTriples} |Tt|=${ds.target.numTriples} |test|=${ds.testPairs.length}")

    // With --trace 1 every timed run is followed by a traced replay, so both
    // see the same warm-up.
    val timed = scala.collection.mutable.ArrayBuffer.empty[(Double, Double)]
    val layers = scala.collection.mutable.ArrayBuffer.empty[Map[String, Double]]
    val spans = scala.collection.mutable.ArrayBuffer.empty[Seq[Span]]
    var firstPseudo: Option[Seq[(Long, Long)]] = None
    val loopStart = System.nanoTime()
    while (timed.isEmpty || secondsSince(loopStart) < args.seconds) {
      val (secs, retained, r) = runOnce(ds)
      attempt(resultProblems(r, ref))
      timed += ((secs, retained))
      println(f"run ${timed.length + 1} (timed): $secs%.3f s, retained $retained%.1f MB")
      if (args.trace) {
        reset(spark, ds)
        val tr = new Tracer(spark)
        val replay = TracedPipeline.run(spark, ds, cfg, tr)
        val (metrics, problems) = layerMetrics(ds, cfg, ref, replay, tr.spans)
        val samePseudo = firstPseudo.forall(_ == replay.pseudo.toSeq)
        if (firstPseudo.isEmpty) firstPseudo = Some(replay.pseudo.toSeq)
        attempt(problems ++ (if (samePseudo) Nil else Seq("pseudo-seed set differs between traced replays")))
        layers += metrics
        spans += tr.spans
        println(f"traced replay ${layers.length}: ${metrics("largeea.traced_s")}%.3f s")
      }
    }
    val alignS = median(timed.map(_._1).toSeq)
    println(f"align_s: median $alignS%.4f s of ${timed.length} timed runs " +
      f"(min ${timed.map(_._1).min}%.3f, max ${timed.map(_._1).max}%.3f)")

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) Seq(
        ("align_s", alignS, "s"),
        ("setup_s", median(setups.map(_._3)), "s"),
        ("hits1", ref.scores.hits1, "ratio"),
        ("mrr", ref.scores.mrr, "ratio"),
        ("retained_mb", median(timed.map(_._2).toSeq), "MB"))
      else {
        writeSpans(args, spans.toSeq)
        val perLayer = layers.head.keys.toSeq.sorted.map(k => (k, median(layers.map(_(k)).toSeq), unitOf(k)))
        val tracedS = median(layers.map(_("largeea.traced_s")).toSeq)
        Seq(("kg.generate_s", median(setups.map(_._2)), "s")) ++ perLayer ++ Seq(
          ("largeea.first_run_s", firstSecs, "s"),
          ("trace.overhead_s", tracedS - alignS, "s"))
      }

    spark.stop()
    val json = metrics.map { case (name, v, unit) =>
      val value = if (v.isNaN || v.isInfinite) 0.0 else v
      s""""$name": {"value": $value, "unit": "$unit"}"""
    }.mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$json}}""")
    sys.exit(0)
  }

  private val units = Seq("_s" -> "s", "_cells" -> "count", "_ops" -> "count", "_seeds" -> "count",
    "calls" -> "count", "_mb" -> "MB")
  private def unitOf(name: String) =
    units.collectFirst { case (suffix, u) if name.endsWith(suffix) => u }.getOrElse("ratio")

  /** Per-layer metrics of one traced replay, and what failed its checks.
    * The counts run after the replay, outside its spans.
    */
  private def layerMetrics(
      ds: EaDataset, cfg: LargeEA.Config, ref: LargeEA.Result,
      r: Replay, spans: Seq[Span]): (Map[String, Double], Seq[String]) = {
    val nS = ds.source.numEntities; val nT = ds.target.numEntities
    val sensCells = r.mse.map(_.nnz).getOrElse(0L)
    val sensExpected = if (r.mse.isDefined) nS * math.min(cfg.phi.toLong, nT) else 0L
    val problems = TracedPipeline.mismatches(r, ref) ++
      (if (sensCells == sensExpected) Nil else Seq(s"name.sens_cells $sensCells != |Es|*phi = $sensExpected"))

    def secs(name: String) = spans.filter(_.name == name).map(_.seconds).sum
    def cachedMb(layer: String) = spans.filter(_.name.startsWith(layer + ".")).map(_.storedBytes).sum / MB
    val root = spans.find(_.name == "largeea.run").get
    val mseRecall = r.mse.map(_.df.join(ds.test, Seq("src", "tgt")).count().toDouble / ref.scores.n)
    val srcSizes = r.batches.map(_.srcSizes).getOrElse(Array(1))
    val metrics = Map(
      "kg.collect_s" -> secs("kg.collect"),
      "embed.bert_s" -> secs("embed.bert"),
      "name.sens_s" -> secs("name.sens"),
      "name.sens_cells" -> sensCells.toDouble,
      "name.sens_l1_ops" -> (if (r.mse.isDefined) nS.toDouble * nT else 0.0),
      "name.stns_s" -> secs("name.stns"),
      "name.stns_cells" -> r.mst.map(_.nnz.toDouble).getOrElse(0.0),
      "name.mse_recall" -> mseRecall.getOrElse(0.0),
      "name.da_s" -> secs("name.da"),
      "name.da_seeds" -> r.pseudo.length.toDouble,
      "name.da_precision" -> r.pseudoPrecision,
      "sim.plus_s" -> secs("sim.plus"),
      "sim.fused_cells" -> r.fused.nnz.toDouble,
      "partition.cps_s" -> secs("partition.cps"),
      "partition.test_coloc" -> r.batches.map(_.colocationRate(ds.testPairs)).getOrElse(0.0),
      "partition.batch_skew" -> srcSizes.max.toDouble / (srcSizes.sum.toDouble / srcSizes.length),
      "structure.ms_s" -> secs("structure.ms"),
      "structure.ms_cells" -> r.ms.map(_.nnz.toDouble).getOrElse(0.0),
      "structure.hits1" -> r.structOnly.map(_.hits1).getOrElse(0.0),
      "eval.evaluate_s" -> secs("eval.evaluate"),
      "eval.calls" -> spans.count(_.name == "eval.evaluate").toDouble,
      "name.cached_mb" -> cachedMb("name"),
      "sim.cached_mb" -> cachedMb("sim"),
      "structure.cached_mb" -> cachedMb("structure"),
      "largeea.traced_s" -> root.seconds,
      "largeea.self_s" -> (root.seconds - spans.filter(_.parent == root.name).map(_.seconds).sum))
    (metrics, problems)
  }

  /** Writes every span of every replay as one JSON file. */
  private def writeSpans(args: Args, replays: Seq[Seq[Span]]): Unit = {
    val lines = for ((spans, i) <- replays.zipWithIndex; s <- spans) yield
      s"""{"replay": ${i + 1}, "name": "${s.name}", "parent": "${s.parent}", "start_ns": ${s.startNs}, """ +
        s""""end_ns": ${s.endNs}, "stored_bytes": ${s.storedBytes}}"""
    val path = Paths.get(args.outDir, s"spans-${args.workload}.json")
    Files.createDirectories(path.getParent)
    Files.write(path, lines.mkString("[\n", ",\n", "\n]\n").getBytes(StandardCharsets.UTF_8))
    println(s"spans: ${lines.length} written to $path")
  }
}
