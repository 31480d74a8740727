package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.store.ColumnStore

import scala.util.Random

/** The build path: boundary bucketing must give every row exactly the cell
  * that per-row `colOf` gives, and the sorted cells must match a build that
  * uses a boxed comparator sort.
  */
class FloodBuildSpec extends AnyFunSuite {

  /** Columns at the `Long` extremes, spread over the whole range, and one
    * all-duplicate column.
    */
  private val extreme: ColumnStore = {
    val rng = new Random(91)
    val n = 500
    val wide = Array.fill(n)(rng.nextLong())
    wide(0) = Long.MinValue; wide(1) = Long.MaxValue
    val edges = Array.tabulate(n)(i => if (i % 3 == 0) Long.MinValue else if (i % 3 == 1) Long.MaxValue else i.toLong)
    val dup = Array.fill(n)(17L)
    val small = Array.fill(n)(rng.nextInt(100).toLong)
    ColumnStore.of("wide" -> wide, "edges" -> edges, "dup" -> dup, "small" -> small)
  }

  private val stores: Seq[(String, ColumnStore)] = Seq(
    "random" -> TestData.randomStore(2000, 4, seed = 92),
    "extreme" -> extreme,
    "one-row" -> ColumnStore.of("a" -> Array(5L), "b" -> Array(Long.MinValue), "c" -> Array(Long.MaxValue), "d" -> Array(0L))
  )

  private def flattenings(store: ColumnStore): Seq[(String, Flattening)] =
    Seq("cdf" -> CdfFlattening.train(store, sampleSize = 1000), "linear" -> LinearFlattening.fromStore(store))

  /** Reference cell id: Σ colOf × stride, one model evaluation per row and dimension. */
  private def colOfCells(store: ColumnStore, layout: Layout, flat: Flattening): Array[Int] = {
    val g = layout.gridDims; val st = layout.strides
    Array.tabulate(store.numRows) { row =>
      g.indices.map(k => flat.colOf(g(k), store(g(k), row), layout.cols(k)) * st(k)).sum.toInt
    }
  }

  test("boundaries are the exact smallest values reaching each column") {
    for ((sname, store) <- stores; (fname, flat) <- flattenings(store); dim <- 0 until store.numDims;
         c <- Seq(1, 2, 3, 2048)) {
      val b = flat.boundaries(dim, c)
      val ctx = s"$sname/$fname dim=$dim c=$c"
      assert(b.length == flat.colOf(dim, Long.MaxValue, c), ctx)
      for (k <- b.indices) {
        assert(flat.colOf(dim, b(k), c) > k, s"$ctx k=$k")
        assert(b(k) == Long.MinValue || flat.colOf(dim, b(k) - 1, c) <= k, s"$ctx k=$k not minimal")
      }
    }
  }

  test("boundary bucketing equals Σ colOf × stride for every row") {
    for ((sname, store) <- stores; (fname, flat) <- flattenings(store); c <- Seq(1, 2, 3, 2048)) {
      for (layout <- Seq(Layout(Array(0, 1, 2, 3), Array(c, 3, 2)), Layout(Array(3, 2, 0, 1), Array(2, c, 1)),
                         Layout(Array(2, 0, 1, 3), Array(1, 2, c)))) {
        val got = FloodIndex.cellIds(store, layout, flat)
        assert(got.sameElements(colOfCells(store, layout, flat)), s"$sname/$fname $layout")
      }
    }
  }

  test("data and cellTable equal a reference build with a boxed comparator sort") {
    val rng = new Random(93)
    val n = 4000
    // sort keys with many duplicates, so stability decides the row order
    val store = ColumnStore.of(
      "a" -> Array.fill(n)(rng.nextInt(1000).toLong),
      "b" -> Array.fill(n)(rng.nextInt(5).toLong),
      "c" -> Array.fill(n)((math.pow(rng.nextDouble(), 3) * 50).toLong),
      "row" -> Array.tabulate(n)(_.toLong)
    )
    val flat = CdfFlattening.train(store, sampleSize = 1000)
    for (layout <- Seq(Layout(Array(0, 3, 2, 1), Array(6, 4, 3)), Layout(Array(1, 3, 0, 2), Array(5, 2, 7)),
                       Layout(Array(3, 0, 1, 2), Array(1, 1, 1)))) {
      val cells = colOfCells(store, layout, flat)
      val numCells = layout.numCells.toInt
      val counts = new Array[Int](numCells + 1)
      cells.foreach(c => counts(c + 1) += 1)
      for (i <- 1 to numCells) counts(i) += counts(i - 1)
      val byCell = Array.tabulate(numCells)(c => (0 until n).filter(cells(_) == c).toArray)
      val sortCol = store.columns(layout.sortDim)
      val perm = byCell.flatMap { rows =>
        val boxed = rows.map(Int.box)
        java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => java.lang.Long.compare(sortCol(a), sortCol(b)))
        boxed.map(_.intValue)
      }
      val ref = store.reorder(perm)
      val idx = new FloodIndex(store, layout, flat)
      assert(idx.cellTable.sameElements(counts), layout.toString)
      for (dim <- 0 until store.numDims) assert(idx.data.columns(dim).sameElements(ref.columns(dim)), s"$layout dim=$dim")
    }
  }
}
