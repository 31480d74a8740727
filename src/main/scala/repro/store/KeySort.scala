package repro.store

/** Stable sort of (key, row) pairs held in two parallel primitive arrays —
  * the one sort every index uses to order rows by a 64-bit key (Flood's
  * per-cell sort on the sort dimension, the clustered index's column sort,
  * the Z-order and UB-tree Z-value sorts).
  *
  * Bottom-up merge sort: insertion-sorted runs of `Run` pairs, then merge
  * passes that alternate between the arrays and a scratch copy. Ties keep
  * their input order, so sorting an ascending row-id array yields the same
  * permutation as a stable comparator sort, without boxing.
  */
object KeySort {

  private final val Run = 32

  /** Stable ascending sort of `keys` over the whole array, moving `rows`
    * along with it.
    */
  def sort(keys: Array[Long], rows: Array[Int]): Unit =
    sortSlices(keys, rows, Array(0, keys.length))

  /** Sort each slice `[bounds(i), bounds(i + 1))` of the parallel arrays
    * independently; `bounds` must be non-decreasing within `[0, keys.length]`.
    */
  def sortSlices(keys: Array[Long], rows: Array[Int], bounds: Array[Int]): Unit = {
    require(keys.length == rows.length, "keys and rows must be parallel arrays")
    val bufK = new Array[Long](keys.length)
    val bufR = new Array[Int](rows.length)
    var i = 0
    while (i + 1 < bounds.length) {
      sortSlice(keys, rows, bounds(i), bounds(i + 1), bufK, bufR)
      i += 1
    }
  }

  private def sortSlice(
      keys: Array[Long], rows: Array[Int], s: Int, e: Int,
      bufK: Array[Long], bufR: Array[Int]
  ): Unit = {
    var r = s
    while (r < e) { insertionSort(keys, rows, r, math.min(e, r + Run)); r += Run }
    var srcK = keys; var srcR = rows
    var dstK = bufK; var dstR = bufR
    var w = Run
    while (w < e - s) {
      var lo = s
      while (lo < e) {
        val mid = math.min(e, lo + w)
        val hi = math.min(e, mid + w)
        merge(srcK, srcR, dstK, dstR, lo, mid, hi)
        lo = hi
      }
      val tk = srcK; srcK = dstK; dstK = tk
      val tr = srcR; srcR = dstR; dstR = tr
      w <<= 1
    }
    if (srcK ne keys) {
      System.arraycopy(srcK, s, keys, s, e - s)
      System.arraycopy(srcR, s, rows, s, e - s)
    }
  }

  private def insertionSort(keys: Array[Long], rows: Array[Int], s: Int, e: Int): Unit = {
    var i = s + 1
    while (i < e) {
      val k = keys(i); val r = rows(i)
      var j = i - 1
      while (j >= s && keys(j) > k) { keys(j + 1) = keys(j); rows(j + 1) = rows(j); j -= 1 }
      keys(j + 1) = k; rows(j + 1) = r
      i += 1
    }
  }

  /** Merge the sorted runs `[lo, mid)` and `[mid, hi)` of `src` into `dst`,
    * taking the left run's pair on ties.
    */
  private def merge(
      srcK: Array[Long], srcR: Array[Int], dstK: Array[Long], dstR: Array[Int],
      lo: Int, mid: Int, hi: Int
  ): Unit = {
    if (mid >= hi || srcK(mid - 1) <= srcK(mid)) {
      System.arraycopy(srcK, lo, dstK, lo, hi - lo)
      System.arraycopy(srcR, lo, dstR, lo, hi - lo)
      return
    }
    var i = lo; var j = mid; var o = lo
    while (i < mid && j < hi) {
      if (srcK(j) < srcK(i)) { dstK(o) = srcK(j); dstR(o) = srcR(j); j += 1 }
      else { dstK(o) = srcK(i); dstR(o) = srcR(i); i += 1 }
      o += 1
    }
    if (i < mid) { System.arraycopy(srcK, i, dstK, o, mid - i); System.arraycopy(srcR, i, dstR, o, mid - i) }
    else { System.arraycopy(srcK, j, dstK, o, hi - j); System.arraycopy(srcR, j, dstR, o, hi - j) }
  }
}
