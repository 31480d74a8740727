package repro.baselines

import repro.model.Rmi
import repro.store.{ColumnStore, IndexResult, KeySort, MultiDimIndex, RangeQuery, Scan}

/** Baseline 2 (paper §7.2): clustered single-dimensional index. Points are
  * sorted by `sortDim` (the workload's most selective dimension) and a
  * learned B-tree (RMI) over the sorted column locates range endpoints.
  * Queries without a filter on `sortDim` fall back to a full scan.
  */
final class ClusteredIndex(store: ColumnStore, val sortDim: Int, aggDim: Int = 0)
    extends MultiDimIndex {
  val name = "Clustered"

  private var dataV: ColumnStore = _
  private var rmi: Rmi = _

  val buildNanos: Long = {
    val t0 = System.nanoTime()
    val n = store.numRows
    val perm = Array.range(0, n)
    KeySort.sort(store.columns(sortDim).clone(), perm)
    dataV = store.reorder(perm)
    rmi = Rmi.build(dataV.columns(sortDim), leaves = math.max(64, n / 1024))
    System.nanoTime() - t0
  }

  /** The sorted store (tests). */
  def data: ColumnStore = dataV

  def query(q: RangeQuery): IndexResult = {
    if (!q.filters(sortDim)) {
      val t0 = System.nanoTime()
      val (count, sum) = Scan.scanRange(dataV, q, q.filteredDims, aggDim, 0, dataV.numRows)
      return IndexResult(count, sum, dataV.numRows.toLong, 0L, System.nanoTime() - t0)
    }
    val t0 = System.nanoTime()
    val s = rmi.lowerBound(q.lo(sortDim))
    val e = math.max(s, rmi.upperBound(q.hi(sortDim))) // lo > hi: empty, not negative
    val t1 = System.nanoTime()
    // the sorted dimension is exact by construction; check the others
    val checks = q.filteredDims.filter(_ != sortDim)
    val (count, sum) = Scan.scanRange(dataV, q, checks, aggDim, s, e)
    val t2 = System.nanoTime()
    IndexResult(count, sum, (e - s).toLong, t1 - t0, t2 - t1)
  }

  def sizeBytes: Long = rmi.sizeBytes
}
