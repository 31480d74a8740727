package floodbench

import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import java.nio.file.{Files, Paths}

/** At a fixed seed two runs learn the same layout and do the same work; the
  * hold-out seed, never used while tuning the benchmark, also runs clean.
  */
class DeterminismSpec extends AnyFunSuite with BeforeAndAfterAll {

  private val calibration = Paths.get("calibration", "sales-100k-8layouts-seed23.tsv")
  private val workDir = Paths.get("target", "test-work").toAbsolutePath.toString

  // a fresh cache: the first run generates with Spark, the second reads it
  private val cacheDir = Files.createTempDirectory(Files.createDirectories(Paths.get(workDir)), "data")
  private val cache = new DataCache(cacheDir)

  override def afterAll(): Unit = {
    Files.list(cacheDir).forEach(p => Files.delete(p))
    Files.delete(cacheDir)
  }

  private def run(w: BenchWorkload, seed: Long): Report =
    Run.run(w, seed, seconds = 0.2, trace = false, calibration, workDir, cache)

  /** The run's learned layout and work counts, as printed in its notes. */
  private def fingerprint(r: Report): Seq[String] =
    r.notes.filter(n => n.startsWith("layout ") || n.startsWith("work: "))

  for (w <- Bench.All) {
    test(s"${w.name}: same layout and work counts at a fixed seed; hold-out seed runs clean") {
      val a = run(w, Bench.FixedSeed)
      val b = run(w, Bench.FixedSeed)
      assert(fingerprint(a).length == 2)
      assert(fingerprint(a) == fingerprint(b))
      for (r <- Seq(a, b)) assert(r.correct && r.failed == 0)
      val bytes = (r: Report) => r.metrics.find(_.name == "index_bytes_per_row").get.value
      assert(bytes(a) == bytes(b))
      val h = run(w, Bench.HoldOutSeed)
      assert(h.correct && h.failed == 0 && h.attempted > 0)
    }
  }
}
