package repro

import org.apache.spark.sql.functions._

/** Sanity checks that the DuckDB oracle catches agreement and disagreement,
  * over the sales generator.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val sales = SynthData.salesMulti(spark, 12000, seed = 1).cache()

  test("sales aggregate agrees with DuckDB") {
    val got = sales
      .filter(col("quantity") <= 25)
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT count(*) AS cnt FROM sales WHERE CAST(quantity AS BIGINT) <= 25",
      "sales" -> sales)
  }

  test("oracle catches a wrong result") {
    val wrong = sales.agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT count(*) AS cnt FROM sales", "sales" -> sales)
    }
  }

  test("oracle enforces aligned column names") {
    val got = sales.agg(count(lit(1)).as("mislabeled"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, "SELECT count(*) AS cnt FROM sales", "sales" -> sales)
    }
  }
}
