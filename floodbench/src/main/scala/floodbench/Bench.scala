package floodbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.core.{CdfFlattening, FloodIndex, FloodStats, Layout}
import repro.model.Plm
import repro.opt.{CostModel, LayoutEvaluator, LayoutOptimizer}
import repro.spark.FloodSpark
import repro.store.{RangeQuery, Scan}
import repro.workload.{Dataset, Workloads}

import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal

/** One benchmark workload: a dataset at a fixed size, a query kind, the
  * number of distinct test queries, and whether its traced run also lays the
  * learned layout out on Spark and queries it there.
  */
final case class BenchWorkload(
    name: String, dataset: String, rows: Int, point: Boolean, numTest: Int, sparkStage: Boolean)

/** COUNT and SUM of one query. */
final case class Answer(count: Long, sum: Long)

/** Latencies (ns, in the order sent) and failures of a closed query loop,
  * cut into windows of `Bench.WindowSeconds`. The reported figures are
  * medians over the windows: the host's speed moves in phases of a fraction
  * of a second to a few seconds, and the median window is the one least
  * touched by them.
  */
final case class LoopResult(latencies: Array[Long], windowEnds: Array[Int], windowNanos: Array[Long], failed: Long,
                            elapsedNanos: Long) {
  def attempted: Long = latencies.length.toLong
  def windows: Int = windowEnds.length

  private lazy val sortedWindows: Seq[Array[Long]] = windowEnds.indices.map { w =>
    val s = java.util.Arrays.copyOfRange(latencies, if (w == 0) 0 else windowEnds(w - 1), windowEnds(w))
    java.util.Arrays.sort(s)
    s
  }

  /** Median over the windows of each window's percentile `p`, in µs. */
  def percentileUs(p: Double): Double = Stats.median(sortedWindows.map(Stats.percentile(_, p))) / 1e3

  /** Median over the windows of each window's queries per second. */
  def qps: Double = Stats.median(sortedWindows.indices.map(w => sortedWindows(w).length / (windowNanos(w) / 1e9)))

  /** Percentile `p` over every sample of the loop, in µs. */
  def overallPercentileUs(p: Double): Double = {
    val s = latencies.clone()
    java.util.Arrays.sort(s)
    Stats.percentile(s, p) / 1e3
  }
}

/** What one set-up produced and how long each step took. */
final case class Learned(
    flat: CdfFlattening,
    opt: LayoutOptimizer.Result,
    index: FloodIndex,
    flattenNanos: Long,
    optimizeNanos: Long,
    buildNanos: Long,
    totalNanos: Long
) {
  def layout: Layout = opt.layout
}

/** The pipeline the benchmark times: dataset → pinned cost model →
  * `CdfFlattening.train` → `LayoutOptimizer.optimize` → `FloodIndex` build →
  * one client sending queries in a closed loop (the next query goes out when
  * the previous answer is back), every answer checked against `Scan.brute`.
  */
object Bench {

  val All: Seq[BenchWorkload] = Seq(
    BenchWorkload("osm-olap", "osm", 300000, point = false, numTest = 1000, sparkStage = true),
    BenchWorkload("tpch-3m-olap", "tpch", 3000000, point = false, numTest = 800, sparkStage = false),
    BenchWorkload("perfmon-point", "perfmon", 300000, point = true, numTest = 1000, sparkStage = false)
  )

  def workload(name: String): BenchWorkload =
    All.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (have ${All.map(_.name).mkString(", ")})"))

  val NumTrain = 80
  /** Point lookups on perfmon's (log_ts, machine). */
  val PointDims: Seq[Int] = Seq(0, 1)
  /** Warm set-ups per run; `setup_s` is their median, after one cold set-up. */
  val WarmSetups = 2
  val WarmupSeconds = 1.0
  /** Length of the windows a timed loop is cut into. */
  val WindowSeconds = 1.0
  /** Warm Spark layout steps in a traced run, after one cold. */
  val WarmSparkLayouts = 2
  /** Test queries the Spark stage asks and checks. */
  val SparkQueries = 20
  /** Partitions of the laid-out Spark data: one per local task slot. */
  val SparkPartitions = 2
  /** The optimizer's defaults, for the per-module probes that mirror it. */
  val OptSampleSize = 4000
  val OptQuerySample = 30
  val OptSeed = 31L
  val PlmDelta = 50.0

  /** A local Spark session with a pinned task count: `rand(seed)` seeds each
    * partition separately, so the generated data depends on the partition
    * count. Two threads and two partitions keep the data identical on any
    * machine.
    */
  def sparkSession(workDir: String): SparkSession = {
    val threads = math.min(2, Runtime.getRuntime.availableProcessors)
    SparkSession.builder()
      .master(s"local[$threads]")
      .appName("floodbench")
      .config("spark.default.parallelism", 2)
      .config("spark.sql.shuffle.partitions", 2)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
  }

  /** The table and the training queries are fixed per workload: the data
    * comes from `Datasets.load` at `DataSeed`, and the layout is learned on
    * the same `NumTrain` queries in every run. `--seed` draws the timed test
    * queries from a pool of `PoolSize` queries of the same distribution.
    * Learned layouts differ between data draws (the optimizer's choice is
    * not stable across them), so a seed that also redrew the data would
    * measure a different index each time.
    */
  val DataSeed = 42L
  val PoolSize = 4000
  /** The seed the determinism test repeats, and the hold-out seed that was
    * never run while the benchmark was tuned.
    */
  val FixedSeed = 1L
  val HoldOutSeed = 7919L

  def loadDataset(spark: => SparkSession, w: BenchWorkload, cache: DataCache): Dataset =
    cache.load(spark, w.dataset, w.rows, DataSeed)

  def queries(ds: Dataset, w: BenchWorkload, seed: Long): Workloads.Workload = {
    val pool =
      if (w.point) Workloads.oltp(ds, PointDims, NumTrain, PoolSize, DataSeed)
      else Workloads.standard(ds, NumTrain, PoolSize, DataSeed)
    val pick = new Random(seed).shuffle(pool.test.indices.toVector).take(w.numTest)
    Workloads.Workload(pool.train, pick.map(pool.test).toArray)
  }

  /** Ground truth for each query, from a full scan. */
  /** Ground truth for each query, from a full scan. The scans run on all
    * cores (this is outside every timed section): on tpch one costs ~27 ms,
    * and the test set must be large for its mix to repeat between seeds.
    */
  def expected(ds: Dataset, qs: Array[RangeQuery], tracer: Tracer): Array[Answer] =
    tracer.span("store.Scan.brute") {
      val out = new Array[Answer](qs.length)
      java.util.stream.IntStream.range(0, qs.length).parallel().forEach { i =>
        val (c, s) = Scan.brute(ds.store, qs(i), ds.aggDim)
        out(i) = Answer(c, s)
      }
      out
    }

  /** Ask every distinct query once and count the answers that differ from
    * `truth` or throw.
    */
  def gate(qs: Array[RangeQuery], truth: Array[Answer])(answer: RangeQuery => Answer): Int =
    qs.indices.count { i =>
      try answer(qs(i)) != truth(i) catch { case NonFatal(_) => true }
    }

  /** One client in a closed loop over `qs` for `seconds`, timing each query;
    * an answer that differs from `truth` or throws counts as failed. The check
    * happens after the clock stops.
    */
  def closedLoop(qs: Array[RangeQuery], truth: Array[Answer], seconds: Double)(
      answer: RangeQuery => Answer): LoopResult = {
    val lat = new Stats.LongBuffer
    val ends = mutable.ArrayBuffer[Int]()
    val lengths = mutable.ArrayBuffer[Long]()
    val window = (WindowSeconds * 1e9).toLong
    var failed = 0L
    var i = 0
    val start = System.nanoTime()
    val deadline = start + (seconds * 1e9).toLong
    var windowStart = start
    var now = start
    while (now < deadline) {
      val q = qs(i)
      val t0 = System.nanoTime()
      val a = try answer(q) catch { case NonFatal(_) => null }
      now = System.nanoTime()
      lat += now - t0
      if (a != truth(i)) failed += 1
      i += 1
      if (i == qs.length) i = 0
      if (now - windowStart >= window || now >= deadline) {
        ends += lat.length
        lengths += now - windowStart
        windowStart = now
      }
    }
    LoopResult(lat.toArray, ends.toArray, lengths.toArray, failed, now - start)
  }

  /** Flatten, optimize and build once. */
  def learnAndBuild(ds: Dataset, train: Array[RangeQuery], model: CostModel, tracer: Tracer): Learned =
    tracer.span("bench.setup") {
      val t0 = System.nanoTime()
      val flat = tracer.span("core.CdfFlattening.train")(CdfFlattening.train(ds.store))
      val t1 = System.nanoTime()
      val opt = tracer.span("opt.LayoutOptimizer.optimize")(LayoutOptimizer.optimize(ds, flat, train, model))
      val t2 = System.nanoTime()
      val idx = tracer.span("core.FloodIndex.build")(new FloodIndex(ds.store, opt.layout, flat, ds.aggDim))
      val t3 = System.nanoTime()
      Learned(flat, opt, idx, t1 - t0, t2 - t1, t3 - t2, t3 - t0)
    }

  /** The Spark side of a learned layout: the core layout's grid dimensions,
    * column counts and sort dimension, with flattening learned by
    * `FloodSpark.learnLayout`, laid out by `applyLayout` and cached.
    */
  final case class SparkLaidOut(layout: FloodSpark.SparkLayout, data: DataFrame, nanos: Long)

  def layOutOnSpark(df: DataFrame, names: Array[String], layout: Layout, tracer: Tracer): SparkLaidOut =
    tracer.span("bench.spark-layout") {
      val t0 = System.nanoTime()
      val sl = tracer.span("spark.FloodSpark.learnLayout") {
        FloodSpark.learnLayout(df, layout.gridDims.map(names).toSeq, layout.cols.toSeq, names(layout.sortDim))
      }
      val laid = tracer.span("spark.FloodSpark.applyLayout") {
        val d = FloodSpark.applyLayout(df, sl, SparkPartitions).persist(StorageLevel.MEMORY_ONLY)
        d.count()
        d
      }
      SparkLaidOut(sl, laid, System.nanoTime() - t0)
    }

  def sparkPreds(q: RangeQuery, names: Array[String]): Seq[(String, Long, Long)] =
    q.filteredDims.toSeq.map(d => (names(d), q.lo(d), q.hi(d)))

  def sparkAnswer(laid: SparkLaidOut, names: Array[String], aggName: String)(q: RangeQuery): Answer = {
    val row = FloodSpark.scan(laid.data, laid.layout, sparkPreds(q, names))
      .agg(count(lit(1)), sum(col(aggName)))
      .collect()(0)
    Answer(row.getLong(0), if (row.isNullAt(1)) 0L else row.getLong(1))
  }

  final case class SparkOutcome(layoutS: Double, cellsTouchedFrac: Double, queryP50Us: Double, checked: Int,
                                failed: Int)

  /** Lay `layout` out on Spark (one cold, then `WarmSparkLayouts` warm), then
    * ask the first `SparkQueries` test queries through `FloodSpark.scan`,
    * checking each against `truth`.
    */
  def sparkStage(src: DataFrame, names: Array[String], aggDim: Int, layout: Layout, test: Array[RangeQuery],
                 truth: Array[Answer], tracer: Tracer): SparkOutcome = {
    var laid: SparkLaidOut = null
    val times = (0 to WarmSparkLayouts).map { _ =>
      if (laid != null) laid.data.unpersist(blocking = true)
      laid = layOutOnSpark(src, names, layout, tracer)
      laid.nanos / 1e9
    }.tail
    val n = math.min(SparkQueries, test.length)
    var failed = 0
    val lat = (0 until n).map { i =>
      val t0 = System.nanoTime()
      val a =
        try tracer.span("spark.FloodSpark.scan")(sparkAnswer(laid, names, names(aggDim))(test(i)))
        catch { case NonFatal(_) => null }
      val us = (System.nanoTime() - t0) / 1e3
      if (a != truth(i)) failed += 1
      us
    }
    val touched = test.map { q =>
      FloodSpark.cellsTouched(laid.layout, sparkPreds(q, names)).toDouble / laid.layout.numCells
    }
    laid.data.unpersist(blocking = true)
    SparkOutcome(Stats.median(times), touched.sum / touched.length, Stats.median(lat), n, failed)
  }

  def coreAnswer(idx: FloodIndex)(q: RangeQuery): Answer = {
    val r = idx.query(q)
    Answer(r.count, r.sum)
  }

  /** The osm data of `Datasets.load` as a cached DataFrame. */
  def sparkSource(spark: SparkSession, w: BenchWorkload, names: Array[String]): DataFrame = {
    require(w.dataset == "osm", "the Spark stage runs on osm")
    val df = SynthData.osmMulti(spark, w.rows, DataSeed).select(names.toSeq.map(col): _*)
      .persist(StorageLevel.MEMORY_ONLY)
    df.count()
    df
  }

  // ---------------------------------------------------------------------
  // Per-module probes for the traced run. Each times calls into one module's
  // public functions from here, around the objects the pipeline built.
  // ---------------------------------------------------------------------

  /** `reps` passes of every test query through `queryWithStats`. */
  def statsPasses(idx: FloodIndex, test: Array[RangeQuery], tracer: Tracer, reps: Int = 5): Array[Array[FloodStats]] =
    Array.fill(reps)(test.map(q => tracer.span("core.FloodIndex.queryWithStats")(idx.queryWithStats(q))))

  /** Work counts of one pass over the test queries (deterministic). */
  def countStats(st: Array[FloodStats]): Map[String, Double] = {
    val scanned = st.map(_.scanned).sum.toDouble
    val matched = st.map(_.count).sum.toDouble
    Map(
      "core.cells_visited" -> st.map(_.nonEmptyCells).sum.toDouble / st.length,
      "core.scan_overhead" -> scanned / math.max(1.0, matched),
      "core.exact_frac" -> st.map(_.exactPoints).sum.toDouble / math.max(1.0, scanned),
      "store.points_scanned" -> scanned / st.length
    )
  }

  /** Median time per query of each phase, and scan time per scanned point. */
  def phaseTimes(stats: Seq[FloodStats]): Map[String, Double] = {
    val scanNs = stats.map(_.scanNanos).sum.toDouble
    val scanned = stats.map(_.scanned).sum.toDouble
    Map(
      "core.projection_us" -> Stats.median(stats.map(_.projectionNanos / 1e3)),
      "core.refine_us" -> Stats.median(stats.map(_.refineNanos / 1e3)),
      "core.scan_us" -> Stats.median(stats.map(_.scanNanos / 1e3)),
      "store.scan_ns_per_point" -> scanNs / math.max(1.0, scanned)
    )
  }

  /** Time per `Flattening.colOf` over every row's grid dimensions. */
  def flattenAssignNs(ds: Dataset, l: Learned, tracer: Tracer): Double = {
    val g = l.layout.gridDims
    val cols = l.layout.cols
    val n = ds.numRows
    var sink = 0L
    val t0 = System.nanoTime()
    tracer.span("core.Flattening.colOf") {
      var k = 0
      while (k < g.length) {
        val c = ds.store.columns(g(k))
        var i = 0
        while (i < n) { sink += l.flat.colOf(g(k), c(i), cols(k)); i += 1 }
        k += 1
      }
    }
    Stats.consume(sink)
    (System.nanoTime() - t0).toDouble / math.max(1L, n.toLong * g.length)
  }

  /** `Plm.build` over every cell of at least 32 rows (δ = 50), then
    * `Plm.predict` on keys drawn from each cell. Returns (build ms, predict
    * ns per call).
    */
  def plmProbe(l: Learned, tracer: Tracer): (Double, Double) = {
    val cells = l.index.cellTable
    val keys = l.index.data.columns(l.layout.sortDim)
    val big = (0 until cells.length - 1).filter(c => cells(c + 1) - cells(c) >= 32).toArray
    val t0 = System.nanoTime()
    val plms = tracer.span("model.Plm.build")(big.map(c => Plm.build(keys, cells(c), cells(c + 1), PlmDelta)))
    val buildMs = (System.nanoTime() - t0) / 1e6
    if (plms.isEmpty) return (buildMs, 0.0)
    val rng = new Random(5)
    val probes = 200000
    val which = Array.fill(probes)(rng.nextInt(plms.length))
    val vals = which.map(k => keys(cells(big(k)) + rng.nextInt(cells(big(k) + 1) - cells(big(k)))))
    var sink = 0L
    val t1 = System.nanoTime()
    tracer.span("model.Plm.predict") {
      var i = 0
      while (i < probes) { sink += plms(which(i)).predict(vals(i)); i += 1 }
    }
    val predictNs = (System.nanoTime() - t1).toDouble / probes
    Stats.consume(sink)
    (buildMs, predictNs)
  }

  /** Optimizer probes: time per `LayoutEvaluator.objective` on the learned
    * layout, time per forest prediction, and the cost model's error on each
    * test query against its measured time.
    */
  def optProbe(ds: Dataset, l: Learned, wl: Workloads.Workload, model: CostModel,
               passes: Array[Array[FloodStats]], tracer: Tracer): Map[String, Double] = {
    val rng = new Random(OptSeed)
    val qs =
      if (wl.train.length <= OptQuerySample) wl.train
      else Array.fill(OptQuerySample)(wl.train(rng.nextInt(wl.train.length)))
    val eval = new LayoutEvaluator(ds, l.flat, qs, OptSampleSize, OptSeed)
    val calls = 20
    var sink = 0.0
    val t0 = System.nanoTime()
    tracer.span("opt.LayoutEvaluator.objective") {
      var i = 0
      while (i < calls) { sink += eval.objective(l.layout, model); i += 1 }
    }
    val objectiveUs = (System.nanoTime() - t0) / 1e3 / calls

    val testEval = new LayoutEvaluator(ds, l.flat, wl.test, OptSampleSize, OptSeed)
    val feats = wl.test.indices.map(i => testEval.features(l.layout, i))
    val xs = feats.map(_.toArray).toArray
    val reps = 200
    val t1 = System.nanoTime()
    tracer.span("model.RandomForest.predict") {
      var r = 0
      while (r < reps) {
        var i = 0
        while (i < xs.length) { sink += model.wsModel.predict(xs(i)); i += 1 }
        r += 1
      }
    }
    val rfNs = (System.nanoTime() - t1).toDouble / (reps * xs.length)
    Stats.consume(sink.toLong)

    // measured: median over the stats passes of each test query's time
    val errs = wl.test.indices.map { i =>
      val measured = Stats.median(passes.toSeq.map { p =>
        (p(i).projectionNanos + p(i).refineNanos + p(i).scanNanos).toDouble
      })
      math.abs(model.predictNanos(feats(i)) - measured) / math.max(1.0, measured)
    }
    Map(
      "opt.objective_us" -> objectiveUs,
      "model.rf_predict_ns" -> rfNs,
      "opt.cost_err_p50" -> Stats.percentile(errs.sorted.toArray, 0.5),
      "opt.cost_err_p90" -> Stats.percentile(errs.sorted.toArray, 0.9)
    )
  }
}
