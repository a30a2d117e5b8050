package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.{Datasets, Tables}
import repro.largeea.LargeEA
import repro.structure.GnnEA

/** Shared SparkSession builder for the spark-submit entrypoints. */
object JobSession {
  def create(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** One table of the paper's evaluation section, by number.
  * Usage: TableJob <1-6>
  */
object TableJob {
  private val tables: Map[String, SparkSession => Unit] = Map(
    // dataset statistics
    "1" -> (spark => println(Tables.renderTable1(Tables.table1(spark)))),
    // overall EA results on IDS15K/IDS100K (lite)
    "2" -> (spark => println(Tables.renderEaRows(Tables.table2(spark)))),
    // overall EA results on DBP1M (lite), supervised
    "3" -> { spark =>
      val (largeRows, oomRows) = Tables.table3(spark)
      println(Tables.renderEaRows(largeRows))
      println("\nCompetitors at DBP1M scale (memory model):")
      println(Tables.renderEaRows(oomRows))
    },
    // unsupervised EA on DBP1M (lite) via name-based DA
    "4" -> { spark =>
      val (rows, stats) = Tables.table4(spark)
      stats.foreach(s =>
        println(f"${s.dataset}: DA generated ${s.pseudoSeeds} pseudo seeds, precision ${s.precision * 100}%.2f%%"))
      println(Tables.renderEaRows(rows))
    },
    // percentage of equivalent entities co-located per mini-batch
    "5" -> (spark => println(Tables.renderTable5(Tables.table5(spark)))),
    // modeled GPU memory usage of LargeEA
    "6" -> (_ => println(Tables.renderTable6(Tables.table6()))))

  def main(args: Array[String]): Unit = args match {
    case Array(n) if tables.contains(n) =>
      val spark = JobSession.create(s"table$n")
      tables(n)(spark)
      spark.stop()
    case _ =>
      Console.err.println("usage: TableJob <1-6>")
      sys.exit(2)
  }
}

/** Run the full LargeEA pipeline once on a named dataset.
  * Usage: RunLargeEA [datasetKey] [G|R] [--unsupervised]
  */
object RunLargeEA {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("largeea")
    val key = args.headOption.getOrElse("IDS15K-EN-FR")
    val spec = Datasets.all.find(_.key == key)
      .getOrElse(sys.error(s"unknown dataset $key; known: ${Datasets.all.map(_.key).mkString(", ")}"))
    val model = if (args.lift(1).contains("G")) GnnEA.Gcn else GnnEA.Rrea
    val unsupervised = args.contains("--unsupervised")
    val ds = Datasets.get(spark, spec)
    val res = LargeEA.run(spark, ds,
      LargeEA.Config(model = model, k = spec.k, unsupervised = unsupervised))
    println(s"dataset=$key model=${model.name} unsupervised=$unsupervised")
    println(s"  fused:       ${res.scores.pretty}")
    res.structOnly.foreach(s => println(s"  structure-only: ${s.pretty}"))
    res.nameOnly.foreach(s => println(s"  name-only:      ${s.pretty}"))
    println(f"  pseudo seeds: ${res.pseudoSeedCount} (precision ${res.pseudoSeedPrecision * 100}%.2f%%), seeds used: ${res.seedsUsed}")
    println("  timings: " + res.timings.map { case (k, v) => f"$k=$v%.1fs" }.mkString(" "))
    spark.stop()
  }
}
