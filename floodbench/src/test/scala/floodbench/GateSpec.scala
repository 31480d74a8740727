package floodbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CdfFlattening, FloodIndex, Layout}
import repro.store.{ColumnStore, RangeQuery, Scan}

import scala.util.Random

/** The correctness gate: an answer that differs from `Scan.brute`, or a
  * query that throws, is counted as failed, in the untimed gate and in the
  * timed loop alike.
  */
class GateSpec extends AnyFunSuite {

  private val rng = new Random(3)
  private val store = new ColumnStore(Array("a", "b", "c"),
    Array.fill(3)(Array.fill(5000)(rng.nextInt(1000).toLong)))
  private val queries = Array.tabulate(20) { i =>
    RangeQuery.of(3, 0 -> ((i * 40L, i * 40L + 200)), 2 -> ((100L, 800L)))
  }
  private val truth = queries.map { q => val (c, s) = Scan.brute(store, q, 1); Answer(c, s) }
  private def brute(q: RangeQuery): Answer = { val (c, s) = Scan.brute(store, q, 1); Answer(c, s) }

  test("a correct index passes the gate and the loop") {
    val idx = new FloodIndex(store, Layout(Array(0, 2, 1), Array(8, 4)), CdfFlattening.train(store), aggDim = 1)
    assert(Bench.gate(queries, truth)(Bench.coreAnswer(idx)) == 0)
    val loop = Bench.closedLoop(queries, truth, 0.05)(Bench.coreAnswer(idx))
    assert(loop.attempted > 0 && loop.failed == 0)
  }

  test("a corrupted answer is counted as failed") {
    val bad = queries(7)
    val corrupt: RangeQuery => Answer = q => {
      val a = brute(q)
      if (q eq bad) a.copy(sum = a.sum + 1) else a
    }
    assert(Bench.gate(queries, truth)(corrupt) == 1)
    val loop = Bench.closedLoop(queries, truth, 0.05)(corrupt)
    val rounds = loop.attempted / queries.length
    assert(loop.failed >= rounds && loop.failed <= rounds + 1)
  }

  test("a query that throws is counted as failed") {
    val boom: RangeQuery => Answer = q => if (q eq queries(0)) throw new IllegalStateException("boom") else brute(q)
    assert(Bench.gate(queries, truth)(boom) == 1)
    assert(Bench.closedLoop(queries, truth, 0.05)(boom).failed >= 1)
  }

  test("the tracer charges a child's time to the child, not its parent") {
    val t = new Tracer(true)
    t.span("bench.outer") {
      t.span("core.inner")(Thread.sleep(20))
    }
    val self = t.selfNanosByModule
    assert(self("core") >= 20000000L)
    assert(self("bench") < self("core"))
    assert(t.size == 2 && t.requests == 1)
  }
}
