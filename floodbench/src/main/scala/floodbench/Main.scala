package floodbench

import repro.opt.Calibration
import repro.workload.{Datasets, Workloads}

import java.nio.file.Paths

/** Entry point of the benchmark JVM (started by `run.py`).
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        --calibration <examples.tsv> --work-dir <dir> --cache-dir <dir>
  *   Main --regen-calibration --calibration <examples.tsv> --work-dir <dir>
  * }}}
  *
  * The last line of standard output is one JSON object with the keys
  * `correct`, `attempted`, `failed` and `metrics`; the lines before it start
  * with `#` and describe the run (layout, sample counts, spans).
  */
object Main {

  private def parse(args: Array[String]): Map[String, String] = {
    val out = Map.newBuilder[String, String]
    var i = 0
    while (i < args.length) {
      val k = args(i)
      require(k.startsWith("--"), s"unexpected argument '$k'")
      if (i + 1 < args.length && !args(i + 1).startsWith("--")) { out += k.drop(2) -> args(i + 1); i += 2 }
      else { out += k.drop(2) -> ""; i += 1 }
    }
    out.result()
  }

  private def num(x: Double): String =
    if (x.isNaN || x.isInfinite) throw new IllegalStateException(s"metric is not a number: $x")
    else x.toString

  def json(r: Report): String = {
    val ms = r.metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** Re-measure the calibration examples on this machine and rewrite the file. */
  private def regenerate(calibration: String, workDir: String): Unit = {
    val spark = Bench.sparkSession(workDir)
    try {
      val ds = Datasets.load(spark, CostInputs.Dataset, CostInputs.Rows, CostInputs.DataSeed)
      val wl = Workloads.standard(ds, seed = CostInputs.Seed)
      val ex = Calibration.collectExamples(ds, wl.train, CostInputs.NumLayouts, CostInputs.Seed)
      CostInputs.write(Paths.get(calibration), ex)
      println(s"# wrote ${ex.length} calibration examples to $calibration")
    } finally spark.stop()
  }

  def main(args: Array[String]): Unit = {
    val code =
      try {
        val o = parse(args)
        if (o.contains("regen-calibration")) regenerate(o("calibration"), o("work-dir"))
        else {
          val trace = o("trace") match {
            case "0" => false
            case "1" => true
            case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not '$t'")
          }
          val w = Bench.workload(o("workload"))
          val r = Run.run(w, o("seed").toLong, o("seconds").toDouble, trace,
            Paths.get(o("calibration")), o("work-dir"), new DataCache(Paths.get(o("cache-dir"))))
          println(s"# workload ${w.name} seed ${o("seed")} trace ${o("trace")}")
          r.notes.foreach(n => println(s"# $n"))
          println(json(r))
        }
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      }
    System.out.flush()
    // Spark leaves non-daemon threads behind; end the JVM explicitly.
    System.exit(code)
  }
}
