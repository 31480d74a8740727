package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}

class FloodSparkSpec extends SparkSpec {

  private lazy val df = SynthData.lineitemMulti(spark, 20000, seed = 5).cache()

  private lazy val sl = FloodSpark.learnLayout(
    df,
    gridDims = Seq("shipdate", "quantity", "discount"),
    cols = Seq(8, 4, 4),
    sortDim = "receiptdate")

  private lazy val laidOut = FloodSpark.applyLayout(df, sl).cache()

  test("layout preserves every row exactly once") {
    assert(laidOut.count() == df.count())
    val before = df.agg(sum(col("quantity"))).head.getLong(0)
    val after = laidOut.agg(sum(col("quantity"))).head.getLong(0)
    assert(before == after)
  }

  test("flood_cell is within [0, numCells)") {
    val mm = laidOut.agg(min(col("flood_cell")), max(col("flood_cell"))).head
    assert(mm.getLong(0) >= 0L)
    assert(mm.getLong(1) < sl.numCells)
  }

  test("rows are sorted by (flood_cell, sortDim) within each partition") {
    import spark.implicits._
    val ok = laidOut
      .select(col("flood_cell"), col("receiptdate"), spark_partition_id().as("pid"))
      .as[(Long, Long, Int)]
      .mapPartitions { it =>
        var sorted = true
        var prev: (Long, Long) = (Long.MinValue, Long.MinValue)
        for ((c, v, _) <- it) {
          if (c < prev._1 || (c == prev._1 && v < prev._2)) sorted = false
          prev = (c, v)
        }
        Iterator(sorted)
      }
      .collect()
    assert(ok.forall(identity))
  }

  test("scan COUNT/SUM matches DuckDB oracle: grid-dim range filter") {
    val preds = Seq(("shipdate", 200L, 900L), ("quantity", 5L, 20L))
    val got = FloodSpark
      .scan(laidOut, sl, preds)
      .agg(count(lit(1)).as("cnt"),
        coalesce(sum(col("discount")), lit(0L)).as("total_discount"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt,
        |       COALESCE(SUM(CAST(discount AS BIGINT)), 0) AS total_discount
        |FROM lineitem
        |WHERE CAST(shipdate AS BIGINT) BETWEEN 200 AND 900
        |  AND CAST(quantity AS BIGINT) BETWEEN 5 AND 20""".stripMargin,
      "lineitem" -> df)
  }

  test("scan matches DuckDB oracle: sort-dim filter included") {
    val preds = Seq(("shipdate", 0L, 1500L), ("receiptdate", 100L, 800L))
    val got = FloodSpark
      .scan(laidOut, sl, preds)
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt FROM lineitem
        |WHERE CAST(shipdate AS BIGINT) BETWEEN 0 AND 1500
        |  AND CAST(receiptdate AS BIGINT) BETWEEN 100 AND 800""".stripMargin,
      "lineitem" -> df)
  }

  test("scan matches DuckDB oracle: filter on a non-indexed dimension") {
    val preds = Seq(("suppkey", 0L, 500L))
    val got = FloodSpark.scan(laidOut, sl, preds).agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT count(*) AS cnt FROM lineitem WHERE CAST(suppkey AS BIGINT) BETWEEN 0 AND 500",
      "lineitem" -> df)
  }

  test("scan matches DuckDB oracle: equality predicate") {
    val preds = Seq(("quantity", 7L, 7L))
    val got = FloodSpark.scan(laidOut, sl, preds)
      .agg(count(lit(1)).as("cnt"), coalesce(sum(col("partkey")), lit(0L)).as("pk_sum"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt, COALESCE(SUM(CAST(partkey AS BIGINT)), 0) AS pk_sum
        |FROM lineitem WHERE CAST(quantity AS BIGINT) = 7""".stripMargin,
      "lineitem" -> df)
  }

  test("grouped aggregation over the scan matches DuckDB") {
    val preds = Seq(("shipdate", 100L, 1200L), ("discount", 2L, 6L))
    val got = FloodSpark.scan(laidOut, sl, preds)
      .groupBy(col("discount").as("d"))
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(discount AS BIGINT) AS d, count(*) AS cnt FROM lineitem
        |WHERE CAST(shipdate AS BIGINT) BETWEEN 100 AND 1200
        |  AND CAST(discount AS BIGINT) BETWEEN 2 AND 6
        |GROUP BY 1""".stripMargin,
      "lineitem" -> df)
  }

  test("cell pruning reduces the cells touched (projection works)") {
    val narrow = Seq(("shipdate", 100L, 200L))
    assert(FloodSpark.cellsTouched(sl, narrow) < sl.numCells)
    val all = FloodSpark.cellsTouched(sl, Seq.empty)
    assert(all == sl.numCells)
  }

  test("prunePredicate keeps exactly the rows whose cells intersect") {
    val preds = Seq(("shipdate", 300L, 700L))
    val pruned = laidOut.filter(FloodSpark.prunePredicate(sl, preds))
    val full = laidOut.filter(col("shipdate").between(300L, 700L))
    // pruning is a superset of the true result, never a subset
    assert(pruned.count() >= full.count())
    assert(pruned.filter(col("shipdate").between(300L, 700L)).count() == full.count())
  }

  test("cellStats summarizes each cell once") {
    val stats = FloodSpark.cellStats(laidOut, Seq("shipdate", "receiptdate")).cache()
    val nCells = laidOut.select(countDistinct(col("flood_cell"))).head.getLong(0)
    assert(stats.count() == nCells)
    assert(stats.agg(sum(col("cnt"))).head.getLong(0) == df.count())
    val bad = stats.filter(col("min_shipdate") > col("max_shipdate")).count()
    assert(bad == 0)
  }

  test("layout strides follow mixed radix") {
    assert(sl.layout.strides.toSeq == Seq(16L, 4L, 1L))
    assert(sl.numCells == 128L)
  }

  test("an empty DataFrame lays out and answers like DuckDB") {
    val empty = SynthData.lineitemMulti(spark, 0, seed = 5)
    val esl = FloodSpark.learnLayout(empty, Seq("shipdate", "quantity"), Seq(4, 4), "receiptdate")
    val got = FloodSpark
      .scan(FloodSpark.applyLayout(empty, esl), esl, Seq(("shipdate", 0L, 900L)))
      .agg(count(lit(1)).as("cnt"), coalesce(sum(col("discount")), lit(0L)).as("total_discount"))
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS cnt,
        |       COALESCE(SUM(CAST(discount AS BIGINT)), 0) AS total_discount
        |FROM lineitem WHERE CAST(shipdate AS BIGINT) BETWEEN 0 AND 900""".stripMargin,
      "lineitem" -> empty)
  }
}
