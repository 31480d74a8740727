package floodbench

/** Order statistics for the benchmark's samples. */
object Stats {

  /** A growable array of longs (latency samples). */
  final class LongBuffer {
    private var a = new Array[Long](1 << 12)
    private var n = 0
    def +=(x: Long): Unit = {
      if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
      a(n) = x
      n += 1
    }
    def length: Int = n
    def toArray: Array[Long] = java.util.Arrays.copyOf(a, n)
  }

  /** Nearest-rank percentile `p` in [0, 1] of an ascending array. */
  def percentile(sorted: Array[Long], p: Double): Double =
    if (sorted.isEmpty) Double.NaN else sorted(rank(sorted.length, p)).toDouble

  def percentile(sorted: Array[Double], p: Double): Double =
    if (sorted.isEmpty) Double.NaN else sorted(rank(sorted.length, p))

  private def rank(n: Int, p: Double): Int =
    math.min(n - 1, math.max(0, math.ceil(p * n).toInt - 1))

  /** Median; the mean of the two middle values when their number is even. */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Keeps a result alive so the JIT cannot drop the loop that made it. */
  @volatile private var blackhole = 0L
  def consume(x: Long): Unit = blackhole += x
}
