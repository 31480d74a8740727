package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.store.{ColumnStore, RangeQuery, Scan}

import scala.util.Random

class FloodIndexSpec extends AnyFunSuite {

  private val store = TestData.randomStore(3000, 4, seed = 71)
  private val flat = CdfFlattening.train(store, sampleSize = 3000)
  private val layout = Layout(Array(0, 1, 2, 3), Array(8, 4, 4))
  private val flood = new FloodIndex(store, layout, flat, aggDim = 1)

  test("COUNT and SUM match brute force on random queries") {
    val rng = new Random(72)
    for (i <- 0 until 100) {
      val q = TestData.randomQuery(store, rng)
      val r = flood.query(q)
      val (c, s) = Scan.brute(store, q, aggDim = 1)
      assert(r.count == c, s"query $i: $q")
      assert(r.sum == s, s"query $i: $q")
    }
  }

  test("correct across many random layouts (the key invariant)") {
    val rng = new Random(73)
    for (trial <- 0 until 20) {
      val order = rng.shuffle((0 until 4).toList).toArray
      val cols = Array.fill(3)(1 + rng.nextInt(12))
      val idx = new FloodIndex(store, Layout(order, cols), flat, aggDim = 0)
      for (_ <- 0 until 15) {
        val q = TestData.randomQuery(store, rng)
        val r = idx.query(q)
        val (c, s) = Scan.brute(store, q, aggDim = 0)
        assert(r.count == c && r.sum == s, s"trial $trial layout=${Layout(order, cols)} q=$q")
      }
    }
  }

  test("correct with linear (non-flattened) layout") {
    val rng = new Random(74)
    val idx = new FloodIndex(store, layout, LinearFlattening.fromStore(store), aggDim = 1)
    for (_ <- 0 until 50) {
      val q = TestData.randomQuery(store, rng)
      assert(idx.query(q).count == Scan.brute(store, q)._1)
    }
  }

  test("correct with binary-search refinement (no PLM)") {
    val rng = new Random(75)
    val idx = new FloodIndex(store, layout, flat, aggDim = 1, usePlm = false)
    for (_ <- 0 until 50) {
      val q = TestData.randomQuery(store, rng)
      val r = idx.query(q)
      val (c, s) = Scan.brute(store, q, aggDim = 1)
      assert(r.count == c && r.sum == s)
    }
  }

  test("PLM and binary-search refinement agree point for point") {
    val rng = new Random(76)
    val a = new FloodIndex(store, layout, flat, aggDim = 0, usePlm = true)
    val b = new FloodIndex(store, layout, flat, aggDim = 0, usePlm = false)
    for (_ <- 0 until 40) {
      val q = TestData.randomQuery(store, rng)
      val ra = a.queryWithStats(q)
      val rb = b.queryWithStats(q)
      assert(ra.count == rb.count && ra.sum == rb.sum && ra.scanned == rb.scanned)
    }
  }

  test("data is laid out in (cell, sort-dim) order") {
    val data = flood.data
    val ct = flood.cellTable
    val sortCol = data.columns(layout.sortDim)
    for (c <- 0 until layout.numCells.toInt) {
      val s = ct(c); val e = ct(c + 1)
      var i = s + 1
      while (i < e) { assert(sortCol(i - 1) <= sortCol(i), s"cell $c not sorted at $i"); i += 1 }
    }
  }

  test("cell table covers all rows and is monotone") {
    val ct = flood.cellTable
    assert(ct(0) == 0)
    assert(ct.last == store.numRows)
    assert(ct.zip(ct.tail).forall { case (a, b) => a <= b })
  }

  test("every point is in the cell the flattening assigns") {
    val data = flood.data
    val ct = flood.cellTable
    val strides = layout.strides
    for (row <- 0 until data.numRows by 37) {
      var cell = 0L
      for (i <- 0 until 3)
        cell += flat.colOf(layout.order(i), data(layout.order(i), row), layout.cols(i)) * strides(i)
      assert(row >= ct(cell.toInt) && row < ct(cell.toInt + 1), s"row $row not in cell $cell")
    }
  }

  test("full-range query scans everything and matches") {
    val q = RangeQuery.full(4)
    val r = flood.queryWithStats(q)
    assert(r.count == store.numRows)
    assert(r.scanned == store.numRows)
    assert(r.cellsInRect == layout.numCells)
  }

  test("sort-dimension-only query is fully exact (refinement, no scan checks)") {
    val sortCol = store.columns(layout.sortDim).clone()
    java.util.Arrays.sort(sortCol)
    val q = RangeQuery.of(4, layout.sortDim -> (sortCol(500), sortCol(2500)))
    val r = flood.queryWithStats(q)
    assert(r.count == Scan.brute(store, q)._1)
    assert(r.exactPoints == r.scanned, "all scanned points should be in exact sub-ranges")
    assert(r.scanned == r.count, "refinement makes the sort dim exact: no overscan")
  }

  test("grid-dim filter reduces scanned points vs full scan") {
    val d0 = store.columns(0).clone()
    java.util.Arrays.sort(d0)
    val q = RangeQuery.of(4, 0 -> (d0(0), d0(300))) // ~10% of dim 0
    val r = flood.queryWithStats(q)
    assert(r.scanned < store.numRows / 2, s"scanned ${r.scanned}")
    assert(r.count == Scan.brute(store, q)._1)
  }

  test("narrower columns reduce scan overhead (paper Fig 4)") {
    val coarse = new FloodIndex(store, Layout(Array(0, 1, 2, 3), Array(2, 1, 1)), flat)
    val fine = new FloodIndex(store, Layout(Array(0, 1, 2, 3), Array(32, 1, 1)), flat)
    val d0 = store.columns(0).clone()
    java.util.Arrays.sort(d0)
    val q = RangeQuery.of(4, 0 -> (d0(100), d0(400)))
    val rc = coarse.queryWithStats(q)
    val rf = fine.queryWithStats(q)
    assert(rf.scanned <= rc.scanned)
    assert(rf.count == rc.count)
  }

  test("stats: projection/refine/scan times are non-negative, refined flag tracks sort filter") {
    val qSort = RangeQuery.of(4, layout.sortDim -> (0L, 100L))
    val qGrid = RangeQuery.of(4, 0 -> (0L, 100L))
    val rs = flood.queryWithStats(qSort)
    val rg = flood.queryWithStats(qGrid)
    assert(rs.refined && !rg.refined)
    assert(rs.projectionNanos >= 0 && rs.refineNanos >= 0 && rs.scanNanos >= 0)
  }

  test("empty-result query") {
    val q = RangeQuery.of(4, 0 -> (store.max(0) + 10, store.max(0) + 20))
    val r = flood.query(q)
    assert(r.count == 0 && r.sum == 0)
  }

  test("point query (equality on all dims) matches brute force") {
    val rng = new Random(77)
    for (_ <- 0 until 20) {
      val row = rng.nextInt(store.numRows)
      val q = RangeQuery(
        Array.tabulate(4)(d => store(d, row)),
        Array.tabulate(4)(d => store(d, row)))
      assert(flood.query(q).count == Scan.brute(store, q)._1)
    }
  }

  test("single-dimension layout behaves as a clustered index") {
    val s1 = ColumnStore.of("x" -> store.columns(0), "y" -> store.columns(1))
    val l1 = Layout(Array(1, 0), Array(1)) // one grid column: everything in cell 0, sorted by x
    val idx = new FloodIndex(s1, l1, CdfFlattening.train(s1), aggDim = 1)
    val rng = new Random(78)
    for (_ <- 0 until 30) {
      val q = TestData.randomQuery(s1, rng)
      val r = idx.query(q)
      val (c, su) = Scan.brute(s1, q, 1)
      assert(r.count == c && r.sum == su)
    }
  }

  test("sizeBytes > 0 and per-cell PLMs are present on coarse layouts") {
    assert(flood.sizeBytes > 0)
    // a coarser grid leaves enough points per cell for PLMs to be built
    val coarse = new FloodIndex(store, Layout(Array(0, 1, 2, 3), Array(4, 2, 2)), flat)
    assert(coarse.plmBytes > 0)
    assert(coarse.sizeBytes > coarse.plmBytes)
  }

  test("rejects layouts over foreign dimensionality") {
    intercept[IllegalArgumentException] {
      new FloodIndex(store, Layout(Array(0, 1), Array(4)), flat)
    }
  }

  test("buildNanos is measured") {
    assert(flood.buildNanos > 0)
  }

  test("duplicate-heavy store is handled") {
    val rng = new Random(79)
    val s = ColumnStore.of(
      "a" -> Array.fill(2000)(rng.nextInt(3).toLong),
      "b" -> Array.fill(2000)(rng.nextInt(2).toLong),
      "c" -> Array.fill(2000)(rng.nextInt(5).toLong))
    val idx = new FloodIndex(s, Layout(Array(0, 1, 2), Array(4, 4)), CdfFlattening.train(s))
    for (_ <- 0 until 30) {
      val q = TestData.randomQuery(s, rng)
      assert(idx.query(q).count == Scan.brute(s, q)._1)
    }
  }

  test("a zero-row store builds and answers (0, 0)") {
    val empty = new ColumnStore(Array("a", "b", "c"), Array.fill(3)(Array.empty[Long]))
    val idx = new FloodIndex(empty, Layout(Array(0, 1, 2), Array(4, 4)), CdfFlattening.train(empty))
    for (q <- Seq(RangeQuery.full(3), RangeQuery.of(3, 0 -> (1L, 5L), 2 -> (0L, 0L)))) {
      val r = idx.query(q)
      assert(r.count == 0 && r.sum == 0 && r.scanned == 0, s"on $q")
    }
  }
}
