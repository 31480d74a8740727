package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

import scala.util.Random

class PlmSpec extends AnyFunSuite {

  private def firstOccurrence(a: Array[Long], s: Int, e: Int, v: Long): Int =
    SearchUtil.binaryLowerBound(a, v, s, e) - s

  test("predictions are lower bounds of first occurrence (paper §5.2 invariant)") {
    for (seed <- 1 to 5) {
      val a = TestData.sortedWithDuplicates(2000, seed)
      val plm = Plm.build(a, 0, a.length, delta = 20)
      for (v <- a.distinct) {
        val d = firstOccurrence(a, 0, a.length, v)
        assert(plm.predict(v) <= d, s"seed=$seed v=$v pred=${plm.predict(v)} D=$d")
      }
    }
  }

  test("average absolute error is bounded by delta over distinct values") {
    val a = TestData.sortedWithDuplicates(3000, 21)
    for (delta <- Seq(5.0, 50.0, 200.0)) {
      val plm = Plm.build(a, 0, a.length, delta)
      val distinct = a.distinct
      val errs = distinct.map(v => firstOccurrence(a, 0, a.length, v) - plm.predict(v))
      assert(errs.forall(_ >= 0))
      // the greedy bound holds per slice; globally the average stays near δ
      val avg = errs.sum.toDouble / errs.length
      assert(avg <= delta * 2, s"delta=$delta avgErr=$avg")
    }
  }

  test("smaller delta gives more segments (size-speed tradeoff, Fig 17b)") {
    val rng = new Random(22)
    val a = Array.fill(5000)((math.exp(rng.nextGaussian() * 2) * 1000).toLong)
    java.util.Arrays.sort(a)
    val fine = Plm.build(a, 0, a.length, delta = 2)
    val coarse = Plm.build(a, 0, a.length, delta = 500)
    assert(fine.numSegments > coarse.numSegments)
    assert(fine.sizeBytes > coarse.sizeBytes)
  }

  test("prediction + exponential search finds exact bounds") {
    val a = TestData.sortedWithDuplicates(4000, 23)
    val plm = Plm.build(a, 0, a.length, delta = 30)
    val rng = new Random(24)
    for (_ <- 0 until 500) {
      val v = a(rng.nextInt(a.length)) + rng.nextInt(3) - 1
      val got = SearchUtil.lowerBoundRange(a, v, plm.predict(v), 0, a.length)
      assert(got == SearchUtil.binaryLowerBound(a, v, 0, a.length))
    }
  }

  test("works on a sub-slice with offset indices") {
    val a = TestData.sortedWithDuplicates(1000, 25)
    val s = 200; val e = 700
    val plm = Plm.build(a, s, e, delta = 10)
    assert(plm.n == e - s)
    for (i <- s until e by 17) {
      val v = a(i)
      val d = firstOccurrence(a, s, e, v)
      assert(plm.predict(v) <= d)
      assert(plm.predict(v) >= 0 && plm.predict(v) < e - s)
    }
  }

  test("constant values produce one segment") {
    val a = Array.fill(500)(9L)
    val plm = Plm.build(a, 0, a.length, delta = 10)
    assert(plm.numSegments == 1)
    assert(plm.predict(9L) == 0)
  }

  test("strictly increasing values are modeled near-perfectly") {
    val a = Array.tabulate(1000)(i => i.toLong * 5)
    val plm = Plm.build(a, 0, a.length, delta = 10)
    val rng = new Random(26)
    for (_ <- 0 until 200) {
      val i = rng.nextInt(a.length)
      assert(math.abs(plm.predict(a(i)) - i) <= 60)
    }
  }

  test("empty slice") {
    val plm = Plm.build(Array(1L, 2L), 1, 1, delta = 10)
    assert(plm.n == 0)
    assert(plm.predict(5L) == 0)
  }

  test("values below the first slice clamp to zero") {
    val a = Array(100L, 200L, 300L)
    val plm = Plm.build(a, 0, a.length, delta = 10)
    assert(plm.predict(-50L) == 0)
  }

  test("predict is monotone non-decreasing") {
    val a = TestData.sortedWithDuplicates(2000, 27)
    val plm = Plm.build(a, 0, a.length, delta = 25)
    var prev = 0
    for (v <- a.head to math.min(a.last, a.head + 5000)) {
      val p = plm.predict(v)
      assert(p >= prev, s"at v=$v")
      prev = p
    }
  }

  /** Keys with many duplicates, and keys spread across the whole `Long` range. */
  private val buildInputs: Seq[(String, Array[Long])] = {
    val rng = new Random(28)
    val dupHeavy = Array.fill(6000)(rng.nextInt(300).toLong * 7)
    val wide = Array.fill(6000)(rng.nextLong()) ++ Array(Long.MinValue, Long.MaxValue, 0L, 0L)
    Seq("duplicates" -> dupHeavy, "wide" -> wide, "with-gaps" -> TestData.sortedWithDuplicates(6000, 29))
      .map { case (name, a) => java.util.Arrays.sort(a); name -> a }
  }

  test("lower bound holds on duplicate-heavy and wide-range keys") {
    for ((name, a) <- buildInputs; delta <- Seq(1.0, 20.0, 200.0); s <- Seq(0, 1234)) {
      val plm = Plm.build(a, s, a.length, delta)
      for (i <- s until a.length if i == s || a(i) != a(i - 1))
        assert(plm.predict(a(i)) <= i - s, s"$name delta=$delta s=$s v=${a(i)}")
    }
  }

  test("every slice's average error is at most delta, computed exactly") {
    for ((name, a) <- buildInputs; delta <- Seq(1.0, 20.0, 200.0)) {
      val plm = Plm.build(a, 0, a.length, delta)
      // distinct values with their first-occurrence index
      val points = a.indices.filter(i => i == 0 || a(i) != a(i - 1)).map(i => BigInt(a(i)) -> BigInt(i))
      val bySlice = points.groupBy { case (v, _) => plm.startVal.lastIndexWhere(v >= _) }
      assert(bySlice.keySet == plm.startVal.indices.toSet, s"$name: every slice starts at a key")
      for ((l, pts) <- bySlice if pts.length > 1) {
        val (v0, d0) = pts.minBy(_._1)
        assert(d0 == plm.startIdx(l) && v0 == plm.startVal(l))
        val rest = pts.filter(_._1 != v0)
        // the slice's exact minimum slope num / den, by cross-multiplication; the
        // model stores it rounded to a double, which at an exact tie (average
        // error exactly δ) can put the stored segment's error 1 ulp above δ
        val (num, den) = rest.map { case (v, d) => (d - d0, v - v0) }.reduce { (x, y) =>
          if (y._1 * x._2 < x._1 * y._2) y else x
        }
        val slope = BigDecimal(num) / BigDecimal(den)
        assert((BigDecimal(plm.slope(l)) - slope).abs <= slope * BigDecimal(1e-12), s"$name slice=$l: stored slope")
        // Σ err * den = Σ ((d - d0) * den - num * (v - v0)), against δ * count * den, in integers
        val scaledErr = rest.map { case (v, d) => (d - d0) * den - num * (v - v0) }.sum
        val budget = new java.math.BigDecimal(delta).multiply(new java.math.BigDecimal((den * pts.length).bigInteger))
        assert(new java.math.BigDecimal(scaledErr.bigInteger).compareTo(budget) <= 0,
          s"$name delta=$delta slice=$l avg=${(BigDecimal(scaledErr) / BigDecimal(den * pts.length)).toDouble}")
      }
    }
  }
}
