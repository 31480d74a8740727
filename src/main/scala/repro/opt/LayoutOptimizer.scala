package repro.opt

import repro.core.{Flattening, Layout}
import repro.store.RangeQuery
import repro.workload.{Dataset, Workloads}

import scala.util.Random

/** Estimates a candidate layout's per-query cost features from a data sample
  * without building the layout (paper §4.2: "statistics are either estimated
  * using a sample of D or computed exactly from the query rectangle and
  * layout parameters").
  *
  * Sample points and query bounds are flattened once (their per-dimension
  * CDF fractions are precomputed); each (layout, query) evaluation is then a
  * single pass over the sample with O(1) per-dimension column arithmetic.
  */
final class LayoutEvaluator(
    ds: Dataset,
    flattening: Flattening,
    queries: Array[RangeQuery],
    sampleSize: Int,
    seed: Long
) {
  private val store = ds.store
  private val d = store.numDims
  private val n = store.numRows
  private val rng = new Random(seed)
  private val sampleRows: Array[Int] =
    if (n <= sampleSize) Array.range(0, n) else Array.fill(sampleSize)(rng.nextInt(n))
  private val m = sampleRows.length
  private val scale = n.toDouble / m

  // flattened sample: fracs(dim)(i) = CDF fraction of sample point i in dim
  private val fracs: Array[Array[Double]] = Array.tabulate(d) { dim =>
    val a = new Array[Double](m)
    var i = 0
    while (i < m) { a(i) = flattening.frac(dim, store(dim, sampleRows(i))); i += 1 }
    a
  }
  // raw sample values (for the sort-dimension refinement check)
  private val rawVals: Array[Array[Long]] = Array.tabulate(d) { dim =>
    Array.tabulate(m)(i => store(dim, sampleRows(i)))
  }
  // flattened query bounds
  private val qFracLo: Array[Array[Double]] = queries.map(q => Array.tabulate(d)(k => flattening.frac(k, q.lo(k))))
  private val qFracHi: Array[Array[Double]] = queries.map(q => Array.tabulate(d)(k => flattening.frac(k, q.hi(k))))

  /** Estimated cost features of query `qi` under `layout`. */
  def features(layout: Layout, qi: Int): CostFeatures = {
    val q = queries(qi)
    val g = layout.d - 1
    val gridDims = layout.order
    val cols = layout.cols
    val sortDim = layout.sortDim
    // intersecting column range per grid dim; exact-interior column range
    val cLo = new Array[Int](g)
    val cHi = new Array[Int](g)
    var rectCells = 1.0
    var i = 0
    while (i < g) {
      val dim = gridDims(i)
      if (q.filters(dim)) {
        cLo(i) = Flattening.column(qFracLo(qi)(dim), cols(i))
        cHi(i) = Flattening.column(qFracHi(qi)(dim), cols(i))
      } else { cLo(i) = 0; cHi(i) = cols(i) - 1 }
      rectCells *= (cHi(i) - cLo(i) + 1)
      i += 1
    }
    val sortFiltered = q.filters(sortDim)
    // one pass over the sample: scanned + exact-interior points
    var nsSample = 0
    var exactSample = 0
    var p = 0
    while (p < m) {
      var in = true
      var interior = true
      i = 0
      while (in && i < g) {
        val dim = gridDims(i)
        val c = Flattening.column(fracs(dim)(p), cols(i))
        if (c < cLo(i) || c > cHi(i)) in = false
        else if (q.filters(dim) && (c == cLo(i) || c == cHi(i))) interior = false
        i += 1
      }
      if (in && sortFiltered) {
        val v = rawVals(sortDim)(p)
        if (v < q.lo(sortDim) || v > q.hi(sortDim)) in = false
      }
      if (in) {
        nsSample += 1
        if (interior) exactSample += 1
      }
      p += 1
    }
    val ns = math.max(1.0, nsSample * scale)
    val nonEmpty = math.max(1.0, math.min(rectCells, nsSample.toDouble * scale / math.max(1.0, n.toDouble / layout.numCells)))
    CostFeatures(
      cellsInRect = rectCells,
      nonEmptyCells = nonEmpty,
      ns = ns,
      totalCells = layout.numCells.toDouble,
      avgCellSize = n.toDouble / layout.numCells,
      numFilteredDims = q.filteredDims.length.toDouble,
      avgVisitedPerCell = ns / nonEmpty,
      fracExact = if (nsSample == 0) 0.0 else exactSample.toDouble / nsSample,
      refined = sortFiltered
    )
  }

  /** Average predicted query time (ns) of the workload under `layout`. */
  def objective(layout: Layout, model: CostModel): Double = {
    var s = 0.0
    var i = 0
    while (i < queries.length) { s += model.predictNanos(features(layout, i)); i += 1 }
    s / queries.length
  }
}

/** Layout optimization (paper §4.2, Algorithm 1): try each dimension as the
  * sort dimension, order the grid dimensions by selectivity, and search the
  * per-dimension column counts by a multiplicative coordinate descent on the
  * cost-model objective. Nothing is built or sorted during the search.
  */
object LayoutOptimizer {

  final case class Result(layout: Layout, predictedNanos: Double, learnNanos: Long)

  val MaxTotalCells: Long = 1L << 18
  val MaxColsPerDim: Int = 2048

  def optimize(
      ds: Dataset,
      flattening: Flattening,
      trainQueries: Array[RangeQuery],
      model: CostModel,
      dataSampleSize: Int = 4000,
      querySampleSize: Int = 30,
      seed: Long = 31,
      maxIters: Int = 12
  ): Result = {
    val t0 = System.nanoTime()
    val rng = new Random(seed)
    val d = ds.numDims
    val qs =
      if (trainQueries.length <= querySampleSize) trainQueries
      else Array.fill(querySampleSize)(trainQueries(rng.nextInt(trainQueries.length)))
    val eval = new LayoutEvaluator(ds, flattening, qs, dataSampleSize, seed)
    val selOrder = Workloads.selectivityOrder(ds.store, qs)

    var best: Layout = null
    var bestCost = Double.MaxValue

    for (sortDim <- 0 until d) {
      val grid = selOrder.filter(_ != sortDim)
      val order = grid :+ sortDim
      // initial allocation: uniform split of a moderate cell budget
      val g = d - 1
      val target = math.min(MaxTotalCells / 4, math.max(64L, ds.numRows / 4096L))
      var cols = Array.fill(g)(math.max(1, math.round(math.pow(target.toDouble, 1.0 / g)).toInt))
      var cost = eval.objective(Layout(order, cols), model)
      var iter = 0
      var improved = true
      while (improved && iter < maxIters) {
        improved = false
        var i = 0
        while (i < g) {
          for (factor <- Seq(2.0, 0.5)) {
            val c2 = cols.clone()
            c2(i) = math.max(1, math.min(MaxColsPerDim, math.round(cols(i) * factor).toInt))
            if (!java.util.Arrays.equals(c2, cols)) {
              val l2 = Layout(order, c2)
              if (l2.numCells <= MaxTotalCells) {
                val cand = eval.objective(l2, model)
                if (cand < cost - 1e-9) { cost = cand; cols = c2; improved = true }
              }
            }
          }
          i += 1
        }
        iter += 1
      }
      if (cost < bestCost) { bestCost = cost; best = Layout(order, cols) }
    }
    Result(best, bestCost, System.nanoTime() - t0)
  }
}
