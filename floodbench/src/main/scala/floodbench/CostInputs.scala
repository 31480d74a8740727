package floodbench

import repro.model.RandomForest
import repro.opt.{Calibration, CostFeatures, CostModel}

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._

/** The cost model's pinned inputs: calibration examples (`CostFeatures` plus
  * the measured weights w_p, w_r, w_s) committed as a TSV file, so every run
  * fits the same three forests instead of re-timing random layouts. The file
  * is produced once with the settings `TableGen.calibrateOnce` uses (sales,
  * 100k rows, 8 layouts, seed 23); `Main --regen-calibration` rewrites it.
  */
object CostInputs {

  val Header: Seq[String] = Seq(
    "cellsInRect", "nonEmptyCells", "ns", "totalCells", "avgCellSize",
    "numFilteredDims", "avgVisitedPerCell", "fracExact", "refined", "wp", "wr", "ws")

  /** Calibration settings of `TableGen.calibrateOnce`. */
  val Dataset = "sales"
  val Rows = 100000
  val DataSeed = 91L
  val NumLayouts = 8
  val Seed = 23L

  def write(path: Path, examples: Seq[Calibration.Example]): Unit = {
    // Double.toString round-trips exactly, so a re-read fits identical forests.
    val lines = Header.mkString("\t") +: examples.map { e =>
      val f = e.features
      Seq(f.cellsInRect, f.nonEmptyCells, f.ns, f.totalCells, f.avgCellSize,
        f.numFilteredDims, f.avgVisitedPerCell, f.fracExact).map(_.toString)
        .++(Seq(f.refined.toString, e.wp.toString, e.wr.toString, e.ws.toString))
        .mkString("\t")
    }
    Files.createDirectories(path.toAbsolutePath.getParent)
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }

  def read(path: Path): Seq[Calibration.Example] = {
    val lines = Files.readAllLines(path, StandardCharsets.UTF_8).asScala.toSeq
    require(lines.nonEmpty && lines.head.split('\t').toSeq == Header,
      s"$path: expected a header ${Header.mkString(",")}")
    lines.tail.filter(_.nonEmpty).map { line =>
      val c = line.split('\t')
      require(c.length == Header.length, s"$path: bad line '$line'")
      def x(i: Int): Double = c(i).toDouble
      Calibration.Example(
        CostFeatures(x(0), x(1), x(2), x(3), x(4), x(5), x(6), x(7), refined = c(8).toBoolean),
        wp = x(9), wr = x(10), ws = x(11))
    }
  }

  /** Fit the three weight forests exactly as `Calibration.calibrate` does:
    * seeds `Seed`, `Seed + 1`, `Seed + 2`, and w_r only on refined examples.
    */
  def fit(ex: Seq[Calibration.Example]): CostModel = {
    require(ex.nonEmpty, "no calibration examples")
    val xs = ex.map(_.features.toArray).toArray
    val wp = RandomForest.fit(xs, ex.map(_.wp).toArray, seed = Seed)
    val wrEx = ex.filter(_.features.refined)
    val wr =
      if (wrEx.nonEmpty)
        RandomForest.fit(wrEx.map(_.features.toArray).toArray, wrEx.map(_.wr).toArray, seed = Seed + 1)
      else RandomForest.fit(xs, ex.map(_ => 0.0).toArray, seed = Seed + 1)
    val ws = RandomForest.fit(xs, ex.map(_.ws).toArray, seed = Seed + 2)
    new CostModel(wp, wr, ws)
  }
}
