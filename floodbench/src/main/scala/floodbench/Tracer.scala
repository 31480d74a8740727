package floodbench

import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * The benchmark wraps each call it makes into a module's public function in
  * a span named `<module>.<function>` (modules: `store`, `model`, `core`,
  * `opt`, `spark`; the benchmark's own phases use `bench`). A span records its
  * name, start, end and parent; spans opened while another is open are its
  * children, and every span carries the id of its root span, which is the
  * request it belongs to. Nothing is recorded while the tracer is off, so the
  * untraced run pays only a branch.
  */
final class Tracer(val on: Boolean) {
  private val names = mutable.ArrayBuffer[String]()
  private val nameIds = mutable.HashMap[String, Int]()
  private var nameOf = new Array[Int](1024)
  private var parentOf = new Array[Int](1024)
  private var rootOf = new Array[Int](1024)
  private var startOf = new Array[Long](1024)
  private var endOf = new Array[Long](1024)
  private var n = 0
  private var open = -1

  /** Number of spans recorded so far. */
  def size: Int = n

  private def grow(): Unit = {
    val cap = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    parentOf = java.util.Arrays.copyOf(parentOf, cap)
    rootOf = java.util.Arrays.copyOf(rootOf, cap)
    startOf = java.util.Arrays.copyOf(startOf, cap)
    endOf = java.util.Arrays.copyOf(endOf, cap)
  }

  /** Run `body` inside a span called `name`. */
  def span[T](name: String)(body: => T): T =
    if (!on) body
    else {
      if (n == nameOf.length) grow()
      val id = n
      n += 1
      nameOf(id) = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
      parentOf(id) = open
      rootOf(id) = if (open < 0) id else rootOf(open)
      open = id
      startOf(id) = System.nanoTime()
      try body
      finally {
        endOf(id) = System.nanoTime()
        open = parentOf(id)
      }
    }

  /** Self time of every span (duration minus the time its children cover). */
  private def selfNanos(): Array[Long] = {
    val self = Array.tabulate(n)(i => endOf(i) - startOf(i))
    var i = 0
    while (i < n) {
      val p = parentOf(i)
      if (p >= 0) self(p) -= endOf(i) - startOf(i)
      i += 1
    }
    self
  }

  /** Self time in nanoseconds per module (the span name's first segment). */
  def selfNanosByModule: Map[String, Long] = {
    val self = selfNanos()
    val out = mutable.HashMap[String, Long]().withDefaultValue(0L)
    var i = 0
    while (i < n) { out(Tracer.moduleOf(names(nameOf(i)))) += self(i); i += 1 }
    out.toMap
  }

  /** Per span name: (count, total ns, self ns), sorted by self time. */
  def summary: Seq[(String, Long, Long, Long)] = {
    val self = selfNanos()
    val cnt = new Array[Long](names.length)
    val tot = new Array[Long](names.length)
    val slf = new Array[Long](names.length)
    var i = 0
    while (i < n) {
      val k = nameOf(i)
      cnt(k) += 1; tot(k) += endOf(i) - startOf(i); slf(k) += self(i)
      i += 1
    }
    names.indices.map(k => (names(k), cnt(k), tot(k), slf(k))).sortBy(-_._4)
  }

  /** Number of distinct requests (root spans). */
  def requests: Int = (0 until n).count(i => rootOf(i) == i)
}

object Tracer {
  val off = new Tracer(false)
  val Modules: Seq[String] = Seq("store", "model", "core", "opt", "spark")
  def moduleOf(spanName: String): String = spanName.takeWhile(_ != '.')
}
