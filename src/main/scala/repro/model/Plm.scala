package repro.model

import scala.collection.mutable.ArrayBuffer

/** Piecewise Linear Model of a CDF (paper §5.2).
  *
  * Models `D(v)` — the index of the first occurrence of `v` in a sorted
  * list — with greedy linear segments that are *lower bounds* on the true
  * index (`P(v) <= D(v)` for every value present) and whose average absolute
  * error per slice is at most `delta`. The greedy pass keeps, for the current
  * slice anchored at `(v0, i0)`, the minimum slope over its points; that
  * minimum keeps the segment below every point of the slice. When the
  * average error exceeds `delta`, a new slice starts. Running sums over the
  * slice make each step O(1).
  *
  * Lookup finds the segment by binary search over slice start values (the
  * paper's cache-optimized B-tree; a flat sorted array here) and evaluates
  * the segment. Predictions are clamped to the slice's index range, so the
  * model is monotone and the subsequent exponential-search rectification is
  * O(log error).
  */
final class Plm private (
    private[model] val startVal: Array[Long], // first value of each slice
    private[model] val startIdx: Array[Int],  // D(startVal) of each slice
    private[model] val slope: Array[Double],  // slope of each slice's segment
    val n: Int                                // number of modeled entries
) {
  /** Number of linear segments. */
  def numSegments: Int = startVal.length

  /** Predicted index of `v` (a lower bound for values present in the list). */
  def predict(v: Long): Int = {
    if (n == 0) return 0
    // binary search: last slice with startVal <= v
    var l = 0
    var h = startVal.length - 1
    if (v < startVal(0)) return 0
    while (l < h) {
      val m = (l + h + 1) >>> 1
      if (startVal(m) <= v) l = m else h = m - 1
    }
    val p = startIdx(l) + (slope(l) * (v.toDouble - startVal(l).toDouble)).toInt
    val hiIdx = if (l + 1 < startIdx.length) startIdx(l + 1) else n - 1
    math.max(startIdx(l), math.min(hiIdx, math.min(n - 1, p)))
  }

  /** Model size in bytes. */
  def sizeBytes: Long = startVal.length.toLong * (8 + 4 + 8)
}

object Plm {

  /** Build over a non-decreasing slice `values[s, e)` with average-error
    * budget `delta`. Indices in the model are relative to `s`.
    */
  def build(values: Array[Long], s: Int, e: Int, delta: Double): Plm = {
    val n = e - s
    val sv = new ArrayBuffer[Long]()
    val si = new ArrayBuffer[Int]()
    val sl = new ArrayBuffer[Double]()
    if (n <= 0) return new Plm(Array(0L), Array(0), Array(0.0), 0)

    // Running sums over the current slice's accepted points (the anchor
    // excluded): their count, Σ index and Σ (v - sliceStartV). Under slope m
    // the slice's total error Σ (i - sliceStartI - m (v - sliceStartV)) is
    // sumI - cnt * sliceStartI - m * sumDv, so each candidate costs O(1).
    var sliceStartV = values(s)
    var sliceStartI = 0
    var minSlope = Double.MaxValue
    var cnt = 0
    var sumI = 0L
    var sumDv = 0.0

    def flush(): Unit = {
      val sp = if (minSlope == Double.MaxValue) 0.0 else minSlope
      sv += sliceStartV; si += sliceStartI; sl += sp
    }

    var i = s + 1
    var prevV = values(s)
    while (i < e) {
      val v = values(i)
      if (v != prevV) {
        val d = i - s // first occurrence index of v, relative to s
        val dv = v.toDouble - sliceStartV.toDouble
        val cand = (d - sliceStartI).toDouble / dv
        val newMin = math.min(minSlope, cand)
        // average error over the slice's points under the tentative slope
        val errSum = (sumI + d - (cnt + 1).toLong * sliceStartI).toDouble - newMin * (sumDv + dv)
        val avgErr = errSum / (cnt + 2) // anchor + accumulated + candidate
        if (avgErr > delta) {
          flush()
          sliceStartV = v; sliceStartI = d
          minSlope = Double.MaxValue
          cnt = 0; sumI = 0L; sumDv = 0.0
        } else {
          minSlope = newMin
          cnt += 1; sumI += d; sumDv += dv
        }
        prevV = v
      }
      i += 1
    }
    flush()
    new Plm(sv.toArray, si.toArray, sl.toArray, n)
  }
}
