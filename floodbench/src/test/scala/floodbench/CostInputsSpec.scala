package floodbench

import org.scalatest.funsuite.AnyFunSuite

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** The committed cost-model inputs and the metric catalog. */
class CostInputsSpec extends AnyFunSuite {

  private val committed = Paths.get("calibration", "sales-100k-8layouts-seed23.tsv")

  test("committed calibration examples round-trip exactly") {
    val ex = CostInputs.read(committed)
    assert(ex.length == 8 * 80) // 8 layouts x 80 train queries
    val tmp = Files.createTempFile("examples", ".tsv")
    try {
      CostInputs.write(tmp, ex)
      assert(CostInputs.read(tmp) == ex)
    } finally Files.delete(tmp)
  }

  test("fitting the pinned inputs twice gives the same cost model") {
    val ex = CostInputs.read(committed)
    val (a, b) = (CostInputs.fit(ex), CostInputs.fit(ex))
    for (e <- ex.take(50)) assert(a.predictNanos(e.features) == b.predictNanos(e.features))
  }

  test("BENCHMARK.json lists exactly the metrics the benchmark prints, with their units") {
    val json = new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), StandardCharsets.UTF_8)
    val listed = """"name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)"""".r
      .findAllMatchIn(json).map(m => m.group(1) -> m.group(2)).toSeq
    assert(listed == Run.EndToEnd ++ Run.PerLayer)
    val workloads = """"name":\s*"([^"]+)",\s*"why"""".r.findAllMatchIn(json).map(_.group(1)).toSeq
    assert(workloads == Bench.All.map(_.name))
  }
}
