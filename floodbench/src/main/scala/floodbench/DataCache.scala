package floodbench

import org.apache.spark.sql.SparkSession
import repro.store.ColumnStore
import repro.workload.{Dataset, Datasets}

import java.io.{DataInputStream, DataOutputStream}
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardCopyOption, StandardOpenOption}

/** Generated datasets kept on disk between runs.
  *
  * `Datasets.load` generates data with Spark, which costs a Spark start and a
  * collect on every run. The first run of a dataset stores the collected
  * columns under `dir`; later runs read them back bit for bit. `run.py`
  * names `dir` after the hash of the sources, so a change to a generator
  * starts a fresh cache.
  */
final class DataCache(dir: Path) {

  /** `Datasets.load(spark, name, rows, seed)`, from the cache when present. */
  def load(spark: => SparkSession, name: String, rows: Int, seed: Long): Dataset = {
    val file = dir.resolve(s"$name-$rows-$seed.bin")
    if (Files.exists(file)) DataCache.read(file)
    else {
      val ds = Datasets.load(spark, name, rows, seed)
      Files.createDirectories(dir)
      val tmp = Files.createTempFile(dir, name, ".tmp")
      DataCache.write(tmp, ds)
      Files.move(tmp, file, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
      ds
    }
  }
}

object DataCache {
  private val Magic = 0x464c4f4f44L // "FLOOD"

  private def write(file: Path, ds: Dataset): Unit = {
    val out = new DataOutputStream(Files.newOutputStream(file))
    try {
      out.writeLong(Magic)
      out.writeUTF(ds.name)
      out.writeInt(ds.aggDim)
      out.writeInt(ds.numDims)
      out.writeInt(ds.numRows)
      ds.store.names.foreach(out.writeUTF)
      val buf = ByteBuffer.allocate(ds.numRows * 8).order(ByteOrder.LITTLE_ENDIAN)
      for (c <- ds.store.columns) {
        buf.clear()
        buf.asLongBuffer().put(c)
        out.write(buf.array())
      }
    } finally out.close()
  }

  private def read(file: Path): Dataset = {
    val ch = FileChannel.open(file, StandardOpenOption.READ)
    try {
      val in = new DataInputStream(java.nio.channels.Channels.newInputStream(ch))
      require(in.readLong() == Magic, s"$file is not a dataset file")
      val name = in.readUTF()
      val aggDim = in.readInt()
      val d = in.readInt()
      val n = in.readInt()
      val names = Array.fill(d)(in.readUTF())
      val buf = ByteBuffer.allocate(n * 8).order(ByteOrder.LITTLE_ENDIAN)
      val cols = Array.fill(d) {
        buf.clear()
        in.readFully(buf.array())
        val c = new Array[Long](n)
        buf.asLongBuffer().get(c)
        c
      }
      Dataset(name, new ColumnStore(names, cols), aggDim)
    } finally ch.close()
  }
}
