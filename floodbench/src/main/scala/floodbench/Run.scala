package floodbench

import repro.core.Layout
import repro.opt.{Calibration, CostModel}
import org.apache.spark.sql.SparkSession
import repro.workload.Workloads

import java.nio.file.Path
import scala.collection.mutable

/** A metric as the benchmark prints it. */
final case class Metric(name: String, value: Double, unit: String)

/** The outcome of one run: the JSON fields plus human-readable notes. */
final case class Report(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric], notes: Seq[String])

/** One benchmark run of a workload at a seed: untraced (end-to-end metrics)
  * or traced (per-module metrics).
  */
object Run {

  /** End-to-end metrics (name, unit), printed by untraced runs. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "query_p50_us" -> "us",
    "query_p99_us" -> "us",
    "query_qps" -> "1/s",
    "setup_s" -> "s",
    "index_bytes_per_row" -> "B/row"
  )

  /** Per-module metrics (name, unit), printed by traced runs. The `spark.*`
    * metrics come from the traced run of the workload with `sparkStage`;
    * elsewhere they read 0.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "core.projection_us" -> "us",
    "core.refine_us" -> "us",
    "core.scan_us" -> "us",
    "store.scan_ns_per_point" -> "ns",
    "core.cells_visited" -> "count",
    "core.scan_overhead" -> "ratio",
    "core.exact_frac" -> "ratio",
    "store.points_scanned" -> "count",
    "core.build_ms" -> "ms",
    "core.flatten_train_ms" -> "ms",
    "core.flatten_assign_ns" -> "ns",
    "model.plm_build_ms" -> "ms",
    "model.plm_predict_ns" -> "ns",
    "model.plm_bytes" -> "B",
    "opt.optimize_ms" -> "ms",
    "opt.objective_us" -> "us",
    "model.rf_predict_ns" -> "ns",
    "opt.cost_err_p50" -> "ratio",
    "opt.cost_err_p90" -> "ratio",
    "model.rf_fit_ms" -> "ms",
    "opt.calibrate_s" -> "s",
    "spark.layout_s" -> "s",
    "spark.cells_touched_frac" -> "ratio",
    "spark.query_p50_us" -> "us",
    "store.self_ms" -> "ms",
    "model.self_ms" -> "ms",
    "core.self_ms" -> "ms",
    "opt.self_ms" -> "ms",
    "spark.self_ms" -> "ms",
    "trace.query_p50_us" -> "us",
    "trace.overhead_us" -> "us"
  )

  private def layoutString(l: Layout): String =
    s"grid=${l.gridDims.zip(l.cols).map { case (d, c) => s"d${d}x$c" }.mkString(",")} sort=d${l.sortDim}"

  def run(w: BenchWorkload, seed: Long, seconds: Double, trace: Boolean, calibration: Path,
          workDir: String, cache: DataCache): Report = {
    val tracer = new Tracer(trace)
    val notes = mutable.ArrayBuffer[String]()
    val layer = mutable.LinkedHashMap[String, Double](PerLayer.map(_._1 -> 0.0): _*)
    // wall time of each phase of the run, for the notes
    val wall = mutable.LinkedHashMap[String, Double]()
    def phase[T](name: String)(body: => T): T = {
      val t0 = System.nanoTime()
      try body finally wall(name) = wall.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e9
    }

    // Spark starts only to generate data missing from the cache and for the
    // Spark stage of a traced run.
    var started: SparkSession = null
    lazy val spark = { started = Bench.sparkSession(workDir); started }
    try {
      val ds = phase("load")(tracer.span("bench.load")(Bench.loadDataset(spark, w, cache)))
      val names = ds.store.names
      if (trace) layer("opt.calibrate_s") = phase("calibrate")(calibrate(spark, cache, tracer))
      val sparkSource =
        if (trace && w.sparkStage) phase("spark")(Bench.sparkSource(spark, w, names)) else null
      if (sparkSource == null && started != null) started.stop()

      val t0 = System.nanoTime()
      val model: CostModel = tracer.span("model.RandomForest.fit")(CostInputs.fit(CostInputs.read(calibration)))
      layer("model.rf_fit_ms") = (System.nanoTime() - t0) / 1e6

      val wl = phase("queries")(Bench.queries(ds, w, seed))
      val truth = phase("truth")(Bench.expected(ds, wl.test, tracer))

      // set-up: one cold, then WarmSetups warm; the layout must repeat
      val warm = mutable.ArrayBuffer[Learned]()
      var learned: Learned = null
      val layouts = mutable.LinkedHashSet[String]()
      for (rep <- 0 to Bench.WarmSetups) {
        learned = null
        System.gc()
        val l = phase("setup")(Bench.learnAndBuild(ds, wl.train, model, tracer))
        layouts += layoutString(l.layout)
        if (rep > 0) warm += l.copy(index = null, flat = null)
        learned = l
      }
      val idx = learned.index
      notes += s"layout ${layouts.mkString(" | ")}"
      val layoutRepeats = layouts.size == 1
      if (!layoutRepeats) notes += "FAIL: the learned layout changed between set-ups"

      val answer = Bench.coreAnswer(idx) _
      val gateFailed = phase("gate")(Bench.gate(wl.test, truth)(answer))
      // untimed, so that the JIT has compiled the query path
      phase("warm-up")(Bench.closedLoop(wl.test, truth, Bench.WarmupSeconds)(answer))
      val loopSeconds = if (trace) seconds / 2 else seconds
      val loop = phase("loop")(Bench.closedLoop(wl.test, truth, loopSeconds)(answer))
      var attempted = wl.test.length.toLong + loop.attempted
      var failed = gateFailed.toLong + loop.failed
      notes += f"queries: ${loop.attempted} timed in ${loop.elapsedNanos / 1e9}%.2f s by one closed-loop " +
        f"client, ${wl.test.length} distinct, each checked against Scan.brute; metrics are medians over " +
        f"${loop.windows} windows (over all samples: p50 ${loop.overallPercentileUs(0.5)}%.2f us, " +
        f"p99 ${loop.overallPercentileUs(0.99)}%.2f us)"
      val work = Bench.countStats(Bench.statsPasses(idx, wl.test, Tracer.off, reps = 1).head)
      notes += f"work: cells_visited ${work("core.cells_visited")}, scan_overhead ${work("core.scan_overhead")}, " +
        f"index_bytes ${idx.sizeBytes}"
      notes += f"set-up: median of ${warm.length} warm repeats after 1 cold " +
        warm.map(l => f"${l.totalNanos / 1e9}%.3f").mkString("(", ", ", " s)")

      val metrics =
        if (!trace) {
          Seq(
            Metric("query_p50_us", loop.percentileUs(0.5), "us"),
            Metric("query_p99_us", loop.percentileUs(0.99), "us"),
            Metric("query_qps", loop.qps, "1/s"),
            Metric("setup_s", Stats.median(warm.map(_.totalNanos / 1e9).toSeq), "s"),
            Metric("index_bytes_per_row", idx.sizeBytes.toDouble / ds.numRows, "B/row")
          )
        } else {
          val traced = phase("loop")(Bench.closedLoop(wl.test, truth, loopSeconds)(q =>
            tracer.span("core.FloodIndex.query")(answer(q))))
          attempted += traced.attempted
          failed += traced.failed
          layer("trace.query_p50_us") = traced.percentileUs(0.5)
          layer("trace.overhead_us") = traced.percentileUs(0.5) - loop.percentileUs(0.5)
          notes += f"traced queries: ${traced.attempted} in ${traced.elapsedNanos / 1e9}%.2f s"

          phase("probes") {
            val passes = Bench.statsPasses(idx, wl.test, tracer)
            layer ++= work
            layer ++= Bench.phaseTimes(passes.flatten.toSeq)
            layer("core.build_ms") = Stats.median(warm.map(_.buildNanos / 1e6).toSeq)
            layer("core.flatten_train_ms") = Stats.median(warm.map(_.flattenNanos / 1e6).toSeq)
            layer("opt.optimize_ms") = Stats.median(warm.map(_.optimizeNanos / 1e6).toSeq)
            layer("core.flatten_assign_ns") = Bench.flattenAssignNs(ds, learned, tracer)
            val (plmBuildMs, plmPredictNs) = Bench.plmProbe(learned, tracer)
            layer("model.plm_build_ms") = plmBuildMs
            layer("model.plm_predict_ns") = plmPredictNs
            layer("model.plm_bytes") = idx.plmBytes.toDouble
            layer ++= Bench.optProbe(ds, learned, wl, model, passes, tracer)
          }
          if (sparkSource != null) {
            val s = phase("spark")(Bench.sparkStage(sparkSource, names, ds.aggDim, learned.layout, wl.test, truth, tracer))
            layer("spark.layout_s") = s.layoutS
            layer("spark.cells_touched_frac") = s.cellsTouchedFrac
            layer("spark.query_p50_us") = s.queryP50Us
            attempted += s.checked
            failed += s.failed
            notes += f"spark: ${s.checked} queries checked, p50 ${s.queryP50Us / 1e3}%.1f ms; " +
              f"layout median of ${Bench.WarmSparkLayouts} warm repeats ${s.layoutS}%.3f s"
          }
          val self = tracer.selfNanosByModule
          for (m <- Tracer.Modules) layer(s"$m.self_ms") = self.getOrElse(m, 0L) / 1e6
          for ((name, cnt, tot, slf) <- tracer.summary)
            notes += f"span $name%-36s n=$cnt%-9d total=${tot / 1e6}%.1f ms self=${slf / 1e6}%.1f ms"
          notes += s"spans: ${tracer.size} in ${tracer.requests} requests"
          PerLayer.map { case (n, u) => Metric(n, layer(n), u) }
        }
      notes += wall.map { case (k, v) => f"$k $v%.1f s" }.mkString("wall: ", ", ", "")
      Report(correct = failed == 0 && layoutRepeats, attempted, failed, metrics, notes.toSeq)
    } finally if (started != null) started.stop()
  }

  /** One calibration with the settings the committed examples were made
    * with: what the pinned inputs save (report only, paper §4.1.1).
    * Returns seconds.
    */
  private def calibrate(spark: => SparkSession, cache: DataCache, tracer: Tracer): Double = {
    val cal = cache.load(spark, CostInputs.Dataset, CostInputs.Rows, CostInputs.DataSeed)
    val t0 = System.nanoTime()
    tracer.span("opt.Calibration.collectExamples") {
      val cq = Workloads.standard(cal, seed = CostInputs.Seed)
      Calibration.collectExamples(cal, cq.train, CostInputs.NumLayouts, CostInputs.Seed)
    }
    (System.nanoTime() - t0) / 1e9
  }
}
