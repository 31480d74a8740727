package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{CdfFlattening, FloodIndex}
import repro.opt.{Calibration, LayoutOptimizer}
import repro.store.ColumnStore
import repro.workload.{Dataset, Workloads}

/** End-to-end Oracle verification of the Spark Flood layout on each of the
  * four evaluation datasets (skewed and uniform alike): lay out, scan with a
  * conjunctive range predicate, and diff the aggregate against DuckDB.
  */
class FloodSparkDatasetsSpec extends SparkSpec {

  private def check(df: DataFrame, table: String, gridDims: Seq[String], sortDim: String,
                    preds: Seq[(String, Long, Long)]): Unit = {
    val layout = FloodSpark.learnLayout(df, gridDims, Seq.fill(gridDims.size)(4), sortDim)
    val laidOut = FloodSpark.applyLayout(df, layout)
    val got = FloodSpark.scan(laidOut, layout, preds).agg(count(lit(1)).as("cnt"))
    val where = preds
      .map { case (c, lo, hi) => s"CAST($c AS BIGINT) BETWEEN $lo AND $hi" }
      .mkString(" AND ")
    Oracle.assertEquivalent(got, s"SELECT count(*) AS cnt FROM $table WHERE $where", table -> df)
  }

  test("sales: customer/day layout answers a customer range correctly") {
    val df = SynthData.salesMulti(spark, 8000, seed = 31).cache()
    check(df, "sales", Seq("customer_id", "sale_day"), "price_cents",
      Seq(("customer_id", 10000L, 20000L), ("sale_day", 100L, 600L)))
  }

  test("tpch: shipdate/quantity layout with sort-dim predicate") {
    val df = SynthData.lineitemMulti(spark, 8000, seed = 32).cache()
    check(df, "tpch", Seq("shipdate", "quantity"), "receiptdate",
      Seq(("shipdate", 100L, 1000L), ("receiptdate", 200L, 900L), ("discount", 0L, 5L)))
  }

  test("osm: skewed lat/lon layout answers a geo rectangle correctly") {
    val df = SynthData.osmMulti(spark, 8000, seed = 33).cache()
    check(df, "osm", Seq("lat", "lon"), "ts",
      Seq(("lat", 400000L, 430000L), ("lon", -745000L, -700000L)))
  }

  test("perfmon: skewed metric layout answers a cpu/time slice correctly") {
    val df = SynthData.perfmonMulti(spark, 8000, seed = 34).cache()
    check(df, "perfmon", Seq("log_ts", "cpu"), "mem_mb",
      Seq(("log_ts", 1000000L, 20000000L), ("cpu", 0L, 3000L)))
  }

  test("flattening balances skewed osm cells better than expected from raw ranges") {
    val df = SynthData.osmMulti(spark, 10000, seed = 35).cache()
    val layout = FloodSpark.learnLayout(df, Seq("lat", "lon"), Seq(8, 8), "ts")
    val laidOut = FloodSpark.applyLayout(df, layout)
    val sizes = laidOut.groupBy(col("flood_cell")).count().collect().map(_.getLong(1))
    val n = df.count()
    // learned-CDF columns: the fullest cell holds far less than a naive
    // equal-width grid would put in a city-center cell
    assert(sizes.max < n / 4, s"max cell ${sizes.max} of $n")
    assert(sizes.length > 32, "most cells are populated after flattening")
  }

  test("a layout learned by LayoutOptimizer puts every row in FloodIndex's cell on Spark") {
    val df = SynthData.osmMulti(spark, 20000, seed = 36).cache()
    val store = ColumnStore.fromDataFrame(df, Seq("osm_id", "ts", "lat", "lon", "rec_type", "category"))
    val ds = Dataset("osm", store, store.dimIndex("osm_id"))
    val wl = Workloads.standard(ds, nTrain = 30, nTest = 1, seed = 37)
    val model = Calibration.calibrate(ds, wl.train.take(15), numLayouts = 4, seed = 38)
    val flat = CdfFlattening.train(store)
    val layout = LayoutOptimizer.optimize(ds, flat, wl.train, model).layout
    assert(layout.numCells > 1, s"degenerate learned layout $layout")
    val laidOut = FloodSpark.applyLayout(df, FloodSpark.SparkLayout(store.names.toSeq, layout, flat))
    val sparkSizes = laidOut.groupBy(col("flood_cell")).count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val ct = new FloodIndex(store, layout, flat, ds.aggDim).cellTable
    val coreSizes = (0 until layout.numCells.toInt).collect {
      case c if ct(c + 1) > ct(c) => c.toLong -> (ct(c + 1) - ct(c)).toLong
    }.toMap
    assert(sparkSizes == coreSizes, s"layout $layout")
  }
}
