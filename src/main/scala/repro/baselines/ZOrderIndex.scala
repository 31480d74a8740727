package repro.baselines

import repro.store.{ColumnStore, IndexResult, KeySort, MultiDimIndex, RangeQuery, Scan}

/** Baseline 4 (paper §7.2, Appendix A): points ordered by Z-value, grouped
  * into pages with per-dimension min/max metadata. A query computes the
  * smallest/largest Z-value of the query rectangle, binary-searches the
  * physical range between them, and scans each page in that range whose
  * min/max box intersects the rectangle.
  *
  * @param dimOrder dimensions ordered by decreasing selectivity — the most
  *                 selective dimension's LSB lands at the Z-code's LSB
  */
final class ZOrderIndex(
    store: ColumnStore,
    dimOrder: Array[Int],
    pageSize: Int = 1024,
    aggDim: Int = 0
) extends MultiDimIndex {
  require(dimOrder.sorted.sameElements(Array.range(0, store.numDims)), "dimOrder must be a permutation")

  val name = "Z Order"

  private val d = store.numDims
  private[baselines] val curve = new ZCurve(d)
  private[baselines] val quant = Quantizer.fromStore(store, dimOrder, curve.maxCoord + 1)

  private var dataV: ColumnStore = _
  private var zvals: Array[Long] = _
  private var pageMin: Array[Long] = _ // numPages * d (store-dimension order)
  private var pageMax: Array[Long] = _
  private var numPages: Int = 0

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    val n = store.numRows
    val coords = new Array[Long](d)
    val z = new Array[Long](n)
    var i = 0
    while (i < n) {
      var k = 0
      while (k < d) { coords(k) = quant.quantize(k, store(dimOrder(k), i)); k += 1 }
      z(i) = curve.encode(coords)
      i += 1
    }
    val perm = Array.range(0, n)
    KeySort.sort(z, perm)
    dataV = store.reorder(perm)
    zvals = z
    numPages = (n + pageSize - 1) / pageSize
    pageMin = Array.fill(numPages * d)(Long.MaxValue)
    pageMax = Array.fill(numPages * d)(Long.MinValue)
    var pg = 0
    while (pg < numPages) {
      val s = pg * pageSize
      val e = math.min(n, s + pageSize)
      var dd = 0
      while (dd < d) {
        val col = dataV.columns(dd)
        var mn = Long.MaxValue; var mx = Long.MinValue
        var j = s
        while (j < e) { val v = col(j); if (v < mn) mn = v; if (v > mx) mx = v; j += 1 }
        pageMin(pg * d + dd) = mn; pageMax(pg * d + dd) = mx
        dd += 1
      }
      pg += 1
    }
    System.nanoTime() - t0
  }

  /** Z-codes of the query rectangle's corners (in curve dimension order). */
  private[baselines] def cornerCodes(q: RangeQuery): (Long, Long, Array[Long], Array[Long]) = {
    val qlo = new Array[Long](d)
    val qhi = new Array[Long](d)
    var k = 0
    while (k < d) {
      val dim = dimOrder(k)
      qlo(k) = if (q.lo(dim) == Long.MinValue) 0L else quant.quantize(k, q.lo(dim))
      qhi(k) = if (q.hi(dim) == Long.MaxValue) curve.maxCoord else quant.quantize(k, q.hi(dim))
      k += 1
    }
    (curve.encode(qlo), curve.encode(qhi), qlo, qhi)
  }

  private def pageIntersects(pg: Int, q: RangeQuery): Boolean = {
    val fd = q.filteredDims
    var i = 0
    while (i < fd.length) {
      val dim = fd(i)
      if (pageMax(pg * d + dim) < q.lo(dim) || pageMin(pg * d + dim) > q.hi(dim)) return false
      i += 1
    }
    true
  }

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val (zlo, zhi, _, _) = cornerCodes(q)
    val s = repro.model.SearchUtil.binaryLowerBound(zvals, zlo, 0, zvals.length)
    val e = repro.model.SearchUtil.binaryUpperBound(zvals, zhi, 0, zvals.length)
    // pages overlapping [s, e), filtered by min/max box intersection
    val pages = new scala.collection.mutable.ArrayBuffer[Int]()
    if (s < e) {
      var pg = s / pageSize
      val lastPg = (e - 1) / pageSize
      while (pg <= lastPg) {
        if (pageIntersects(pg, q)) pages += pg
        pg += 1
      }
    }
    val t1 = System.nanoTime()
    var count = 0L; var sum = 0L; var scanned = 0L
    var i = 0
    while (i < pages.length) {
      val pg = pages(i)
      val ps = math.max(s, pg * pageSize)
      val pe = math.min(e, (pg + 1) * pageSize)
      val (cc, ss) = Scan.scanRange(dataV, q, q.filteredDims, aggDim, ps, pe)
      count += cc; sum += ss; scanned += (pe - ps).toLong
      i += 1
    }
    val t2 = System.nanoTime()
    IndexResult(count, sum, scanned, t1 - t0, t2 - t1)
  }

  def sizeBytes: Long =
    zvals.length.toLong * 8 + numPages.toLong * d * 16
}
