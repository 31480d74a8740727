package repro.baselines

import repro.model.SearchUtil
import repro.store.{ColumnStore, IndexResult, KeySort, MultiDimIndex, RangeQuery}

/** Baseline 5 (paper §7.2, Appendix A): UB-tree. Points are ordered by
  * Z-value like the Z-order index and grouped into pages; the scan iterates
  * physical positions, scanning the rest of a page whenever it reaches a
  * Z-value inside the query rectangle, and otherwise computing the next
  * Z-value inside the rectangle (BIGMIN, Tropf–Herzog) and jumping ahead to
  * the position containing it — skipping the dead stretches the Z-curve
  * makes through the box's bounding Z-range.
  */
final class UBTree(
    store: ColumnStore,
    dimOrder: Array[Int],
    pageSize: Int = 1024,
    aggDim: Int = 0
) extends MultiDimIndex {

  val name = "UB tree"

  private val d = store.numDims
  private val curve = new ZCurve(d)
  private val quant = Quantizer.fromStore(store, dimOrder, curve.maxCoord + 1)

  private var dataV: ColumnStore = _
  private var zvals: Array[Long] = _

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
    System.nanoTime() - t0
  }

  def query(q: RangeQuery): IndexResult = {
    val t0 = System.nanoTime()
    val qlo = new Array[Long](d)
    val qhi = new Array[Long](d)
    var emptyBox = false
    var k = 0
    while (k < d) {
      val dim = dimOrder(k)
      qlo(k) = if (q.lo(dim) == Long.MinValue) 0L else quant.quantize(k, q.lo(dim))
      qhi(k) = if (q.hi(dim) == Long.MaxValue) curve.maxCoord else quant.quantize(k, q.hi(dim))
      if (qlo(k) > qhi(k)) emptyBox = true
      k += 1
    }
    // an inverted range quantizes to an empty box, which BIGMIN cannot walk
    if (emptyBox) return IndexResult(0L, 0L, 0L, System.nanoTime() - t0, 0L)
    val zlo = curve.encode(qlo)
    val zhi = curve.encode(qhi)
    var pos = SearchUtil.binaryLowerBound(zvals, zlo, 0, zvals.length)
    val end = SearchUtil.binaryUpperBound(zvals, zhi, 0, zvals.length)
    val t1 = System.nanoTime()

    val fd = q.filteredDims
    var count = 0L; var sum = 0L; var scanned = 0L
    while (pos < end) {
      val z = zvals(pos)
      if (curve.inBox(z, qlo, qhi)) {
        // scan to the end of the page holding this position (quantization is
        // coarse, so verify the raw values of every point)
        val pageEnd = math.min(end, (pos / pageSize + 1) * pageSize)
        val (cc, ss) = repro.store.Scan.scanRange(dataV, q, fd, aggDim, pos, pageEnd)
        count += cc; sum += ss; scanned += (pageEnd - pos).toLong
        pos = pageEnd
      } else {
        val next = curve.bigmin(z, zlo, zhi)
        if (next < 0 || next > zhi) pos = end
        else pos = SearchUtil.lowerBoundRange(zvals, next, pos + 1, pos + 1, end)
      }
    }
    val t2 = System.nanoTime()
    IndexResult(count, sum, scanned, t1 - t0, t2 - t1)
  }

  def sizeBytes: Long = zvals.length.toLong * 8
}
