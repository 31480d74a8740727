package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{CdfFlattening, Flattening, Layout}
import repro.model.SearchUtil
import repro.store.ColumnStore

/** Flood's learned layout as a Spark partitioning/sort scheme with
  * DataFrame-level data skipping.
  *
  * The paper's index is a storage order plus a cell table; in Spark terms
  * that is: (1) compute a `flood_cell` id for every row from the core
  * `Layout` and `Flattening` — the same cell `FloodIndex` puts the row in —
  * (2) repartition by cell range and sort within partitions by
  * `(flood_cell, sortDim)` — giving exactly the paper's depth-first cell
  * traversal order with sort-dimension runs inside each cell — and (3)
  * answer a query by a Catalyst filter that combines *cell-coordinate
  * pruning* (the projection step, computed from `flood_cell` arithmetic, so
  * entire cells are skipped without touching their payload columns) with the
  * residual value predicate.
  *
  * Everything is DataFrame/Catalyst; no RDD-level code.
  */
object FloodSpark {

  /** A Flood layout over a DataFrame's columns: `names(i)` is the column of
    * store dimension `i` of `layout` and `flattening`. A layout learned by
    * `LayoutOptimizer` on a store drives Spark as
    * `SparkLayout(store.names.toSeq, layout, flattening)`.
    */
  final case class SparkLayout(names: Seq[String], layout: Layout, flattening: Flattening) {
    require(names.length == layout.d, "one column name per layout dimension")

    def numCells: Long = layout.numCells
  }

  /** `learnLayout` trains the flattening on about 1.5 × `SampleSize` rows
    * of `df`, drawn with `SampleSeed`.
    */
  private val SampleSize = 10000
  private val SampleSeed = 19L

  /** Learn a layout's flattening from a sample of `df` (the layout's shape —
    * grid dims, column counts, sort dim — comes from the core optimizer or a
    * caller-chosen configuration).
    */
  def learnLayout(df: DataFrame, gridDims: Seq[String], cols: Seq[Int], sortDim: String): SparkLayout = {
    val names = gridDims :+ sortDim
    val frac = math.min(1.0, SampleSize.toDouble / math.max(1L, df.count()).toDouble * 1.5)
    val sample = ColumnStore.fromDataFrame(df.sample(withReplacement = false, frac, SampleSeed), names)
    SparkLayout(names, Layout(names.indices.toArray, cols.toArray), CdfFlattening.train(sample))
  }

  /** The `flood_cell` expression for a layout. Each grid dimension's column
    * is the number of the flattening's column boundaries `<= v`, the rule
    * `FloodIndex` buckets rows by; the UDF captures only the boundaries.
    */
  def cellColumn(sl: SparkLayout): Column = {
    val l = sl.layout
    val strides = l.strides
    val parts = l.gridDims.indices.map { i =>
      val dim = l.gridDims(i)
      val bounds = sl.flattening.boundaries(dim, l.cols(i))
      val colOfUdf = udf((v: Long) => SearchUtil.binaryUpperBound(bounds, v, 0, bounds.length).toLong)
      colOfUdf(col(sl.names(dim)).cast("long")) * lit(strides(i))
    }
    parts.reduce(_ + _).as("flood_cell")
  }

  /** Lay out `df`: add `flood_cell`, range-partition by it, and sort within
    * partitions by `(flood_cell, sortDim)` — the physical storage order of
    * the paper's index.
    */
  def applyLayout(df: DataFrame, sl: SparkLayout, numPartitions: Int = 16): DataFrame =
    df.withColumn("flood_cell", cellColumn(sl))
      .repartitionByRange(numPartitions, col("flood_cell"))
      .sortWithinPartitions(col("flood_cell"), col(sl.names(sl.layout.sortDim)))

  /** Per-cell min/max/count statistics — the skipping index a table format
    * (or this test harness) would persist alongside the laid-out data.
    */
  def cellStats(laidOut: DataFrame, valueCols: Seq[String]): DataFrame = {
    val aggs = valueCols.flatMap(c =>
      Seq(min(col(c)).as(s"min_$c"), max(col(c)).as(s"max_$c"))) :+ count(lit(1)).as("cnt")
    laidOut.groupBy(col("flood_cell")).agg(aggs.head, aggs.tail: _*)
  }

  /** Driver-side projection: the per-grid-dimension column (bucket) ranges a
    * query touches, by `Flattening.colOf` as in `FloodIndex`. Ranges are
    * inclusive.
    */
  def projectedColRanges(sl: SparkLayout, preds: Seq[(String, Long, Long)]): Seq[(Int, Int)] = {
    val byDim = preds.map(p => p._1 -> ((p._2, p._3))).toMap
    val l = sl.layout
    l.gridDims.indices.map { i =>
      val dim = l.gridDims(i)
      val c = l.cols(i)
      byDim.get(sl.names(dim)) match {
        case Some((lo, hi)) => (sl.flattening.colOf(dim, lo, c), sl.flattening.colOf(dim, hi, c))
        case None => (0, c - 1)
      }
    }
  }

  /** Number of cells the query rectangle intersects (skipping effectiveness). */
  def cellsTouched(sl: SparkLayout, preds: Seq[(String, Long, Long)]): Long =
    projectedColRanges(sl, preds).map { case (lo, hi) => (hi - lo + 1).toLong }.product

  /** The cell-pruning predicate: decodes each grid coordinate from
    * `flood_cell` with integer arithmetic and keeps only coordinates inside
    * the projected ranges. Pure Catalyst — no UDFs — so it participates in
    * predicate pushdown.
    */
  def prunePredicate(sl: SparkLayout, preds: Seq[(String, Long, Long)]): Column = {
    val ranges = projectedColRanges(sl, preds)
    val strides = sl.layout.strides
    val conds = ranges.indices.map { i =>
      val coord = floor(col("flood_cell") / lit(strides(i))) % lit(sl.layout.cols(i).toLong)
      val (lo, hi) = ranges(i)
      coord.between(lit(lo.toLong), lit(hi.toLong))
    }
    conds.reduceOption(_ && _).getOrElse(lit(true))
  }

  /** Answer a conjunctive range query over the laid-out DataFrame: cell
    * pruning (projection) AND the residual value filter (refinement + scan,
    * handled by Spark's sorted-run scan within each cell).
    */
  def scan(laidOut: DataFrame, sl: SparkLayout, preds: Seq[(String, Long, Long)]): DataFrame = {
    val valueConds = preds.map { case (c, lo, hi) => col(c).cast("long").between(lit(lo), lit(hi)) }
    val full = (prunePredicate(sl, preds) +: valueConds).reduce(_ && _)
    laidOut.filter(full)
  }
}
