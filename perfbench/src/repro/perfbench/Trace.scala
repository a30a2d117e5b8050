package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.embed.PseudoBert
import repro.eval.{EaScores, Metrics}
import repro.kg.EaDataset
import repro.largeea.LargeEA
import repro.name.{DataAug, Sens, Stns}
import repro.partition.MiniBatches
import repro.sim.SimMatrix
import repro.structure.StructChannel

/** One timed call into a layer. `storedBytes` is the Spark storage the call
  * added (cached blocks after minus before).
  */
final case class Span(name: String, parent: String, startNs: Long, endNs: Long, storedBytes: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory; the harness writes them out once, at the end. */
final class Tracer(spark: SparkSession) {
  private val done = scala.collection.mutable.ArrayBuffer.empty[Span]
  private var stack: List[String] = Nil

  def span[T](name: String)(f: => T): T = {
    val parent = stack.headOption.getOrElse("")
    val before = Bench.storedBytes(spark)
    stack = name :: stack
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      done += Span(name, parent, t0, t1, Bench.storedBytes(spark) - before)
    }
  }

  def spans: Seq[Span] = done.toSeq
}

/** What a traced replay produced, kept for the counts taken after it. */
final case class Replay(
    scores: EaScores,
    structOnly: Option[EaScores],
    nameOnly: Option[EaScores],
    pseudo: Array[(Long, Long)],
    pseudoPrecision: Double,
    seedsUsed: Int,
    batches: Option[MiniBatches],
    mse: Option[SimMatrix],
    mst: Option[SimMatrix],
    ms: Option[SimMatrix],
    fused: SimMatrix)

/** Replays `LargeEA.run` through the public function of each layer, one
  * span per call. Every matrix is cached (and so computed) inside the span
  * that defines it, so lazy Spark work is charged to the layer that owns it.
  * The replay must give the same result as `LargeEA.run`; the harness checks.
  */
object TracedPipeline {

  // `Nff.compute` defaults, which `LargeEA.run` uses.
  private val BertDim = 64
  private val SensSegments = 4

  def run(spark: SparkSession, ds: EaDataset, cfg: LargeEA.Config, tr: Tracer): Replay =
    tr.span("largeea.run") {
      val (trainSeeds, truth) = tr.span("kg.collect")((ds.trainPairs, ds.truthPairs))

      val names =
        if (cfg.useNameChannel || cfg.useDataAug || cfg.unsupervised) {
          val (srcNames, tgtNames) =
            tr.span("kg.collect")((ds.source.namesArray, ds.target.namesArray))
          val bert = new PseudoBert(ds.lexicon, BertDim)
          val (srcVecs, tgtVecs) =
            tr.span("embed.bert")((bert.embedAll(srcNames), bert.embedAll(tgtNames)))
          val mse = tr.span("name.sens")(
            Sens.similarity(spark, srcVecs, tgtVecs, cfg.phi, SensSegments).cache())
          val mst = tr.span("name.stns")(
            Stns.similarity(spark, srcNames, tgtNames, cfg.theta).cache())
          val mn = tr.span("sim.plus")(mse.plus(mst, cfg.gamma).cache())
          Some((mse, mst, mn))
        } else None

      val (pseudo, seeds) = names match {
        case Some((_, _, mn)) if cfg.useDataAug || cfg.unsupervised =>
          tr.span("name.da") {
            val p = DataAug.pseudoSeeds(mn).collect()
              .map(r => (r.getLong(0), r.getLong(1))).sorted
            (p, if (cfg.unsupervised) p else DataAug.mergeSeeds(trainSeeds, p))
          }
        case _ => (Array.empty[(Long, Long)], trainSeeds)
      }
      val pseudoPrecision = tr.span("name.da")(DataAug.precision(pseudo, truth))

      val batches =
        if (cfg.useStructChannel)
          Some(tr.span("partition.cps")(cfg.strategy.partition(ds, cfg.k, seeds, cfg.seed)))
        else None
      val ms = batches.map { b =>
        tr.span("structure.ms")(
          StructChannel.computeMs(spark, ds, b, seeds, cfg.model, cfg.phi).cache())
      }

      val mn = names.filter(_ => cfg.useNameChannel).map(_._3)
      val fused = (ms, mn) match {
        case (Some(a), Some(b)) => tr.span("sim.plus")(a.plus(b).cache())
        case (Some(a), None)    => a
        case (None, Some(b))    => b
        case (None, None)       => SimMatrix.empty(spark)
      }

      def evaluate(m: SimMatrix) = tr.span("eval.evaluate")(Metrics.evaluate(m, ds.test))
      val scores = evaluate(fused)
      val structOnly = ms.map(evaluate)
      val nameOnly = mn.map(evaluate)

      Replay(scores, structOnly, nameOnly, pseudo, pseudoPrecision, seeds.length, batches,
        names.map(_._1), names.map(_._2), ms, fused)
    }

  /** Mismatches between a replay and the `LargeEA.run` result it replays. */
  def mismatches(r: Replay, ref: LargeEA.Result): Seq[String] = {
    def same(a: Option[EaScores], b: Option[EaScores]) =
      a.map(s => (s.hits1, s.hits5)) == b.map(s => (s.hits1, s.hits5))
    val batchesSame = (r.batches, ref.batches) match {
      case (Some(a), Some(b)) => a.k == b.k && a.srcPart.sameElements(b.srcPart) && a.tgtPart.sameElements(b.tgtPart)
      case (a, b)             => a.isEmpty && b.isEmpty
    }
    Seq(
      "fused H@1/H@5" -> same(Some(r.scores), Some(ref.scores)),
      "fused MRR" -> Bench.sameMrr(r.scores.mrr, ref.scores.mrr),
      "structure-only scores" -> same(r.structOnly, ref.structOnly),
      "name-only scores" -> same(r.nameOnly, ref.nameOnly),
      "pseudo-seed count" -> (r.pseudo.length == ref.pseudoSeedCount),
      "pseudo-seed precision" -> (r.pseudoPrecision == ref.pseudoSeedPrecision),
      "seeds used" -> (r.seedsUsed == ref.seedsUsed),
      "mini-batches" -> batchesSame,
    ).collect { case (what, false) => s"traced replay differs from LargeEA.run: $what" }
  }
}
