package repro.store

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class KeySortSpec extends AnyFunSuite {

  /** Reference: a stable comparator sort of boxed row ids by key. */
  private def boxedOrder(keys: Array[Long], rows: Array[Int], s: Int, e: Int): Array[Int] = {
    val boxed = rows.slice(s, e).map(Int.box)
    val byRow = rows.indices.map(i => rows(i) -> keys(i)).toMap
    java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => java.lang.Long.compare(byRow(a.intValue), byRow(b.intValue)))
    boxed.map(_.intValue)
  }

  test("sort is stable on ties and matches a boxed comparator sort") {
    val rng = new Random(81)
    for (n <- Seq(0, 1, 2, 31, 32, 33, 64, 65, 100, 1000, 5000)) {
      val keys = Array.fill(n)(rng.nextInt(10).toLong)
      val rows = Array.range(0, n)
      val expected = boxedOrder(keys, rows, 0, n)
      val k = keys.clone(); val r = rows.clone()
      KeySort.sort(k, r)
      assert(r.sameElements(expected), s"n=$n")
      assert(k.sameElements(r.map(keys)), s"n=$n: keys must move with their rows")
      for (i <- 1 until n) {
        assert(k(i - 1) <= k(i))
        if (k(i - 1) == k(i)) assert(r(i - 1) < r(i), s"n=$n: tie at $i out of row order")
      }
    }
  }

  test("sortSlices sorts each slice on its own, including empty and one-element slices") {
    val rng = new Random(82)
    val n = 1200
    val keys = Array.fill(n)(rng.nextInt(50).toLong - 25)
    val rows = Array.tabulate(n)(i => n - i) // descending ids: order within a tie is the input order
    val bounds = Array(5, 5, 6, 6, 7, 39, 39, 40, 200, 1100)
    val k = keys.clone(); val r = rows.clone()
    KeySort.sortSlices(k, r, bounds)
    // outside the bounds nothing moves
    assert(k.take(5).sameElements(keys.take(5)) && r.take(5).sameElements(rows.take(5)))
    assert(k.drop(1100).sameElements(keys.drop(1100)) && r.drop(1100).sameElements(rows.drop(1100)))
    for (i <- 0 until bounds.length - 1) {
      val s = bounds(i); val e = bounds(i + 1)
      assert(r.slice(s, e).sameElements(boxedOrder(keys, rows, s, e)), s"slice [$s, $e)")
    }
  }

  test("extreme keys sort correctly") {
    val keys = Array(Long.MaxValue, 0L, Long.MinValue, -1L, Long.MaxValue, Long.MinValue, 1L)
    val rows = Array.range(0, keys.length)
    KeySort.sort(keys, rows)
    assert(keys.sameElements(Array(Long.MinValue, Long.MinValue, -1L, 0L, 1L, Long.MaxValue, Long.MaxValue)))
    assert(rows.sameElements(Array(2, 5, 3, 1, 6, 0, 4)))
  }
}
