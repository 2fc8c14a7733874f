package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.{ComplexityExperiment, TableI, TableII}
import repro.experiments.EfficiencyExperiments.{Figure8, Figure9}
import repro.experiments.Figure7Experiments.{Convergence, vsK, vsMu, vsN, vsOm, vsOn}

/** `Reproduce <table1|table2|fig7a|…|fig7f|fig8|fig9|complexity|all>` prints
  * one paper table, or all, as its bench does; only Spark tables start Spark.
  */
object Reproduce {
  def main(args: Array[String]): Unit = {
    lazy val spark = SparkSession.builder.appName("repro").getOrCreate()
    val tables = Seq[(String, () => Unit)](
      "table1" -> (() => TableI.print(TableI.run())),
      "table2" -> (() => TableII.print(TableII.run())),
      "fig7a" -> (() => Convergence.print(Convergence.run())),
      "fig7b" -> (() => vsN.print(vsN.run())),
      "fig7c" -> (() => vsK.print(vsK.run())),
      "fig7d" -> (() => vsMu.print(vsMu.run())),
      "fig7e" -> (() => vsOm.print(vsOm.run())),
      "fig7f" -> (() => vsOn.print(vsOn.run())),
      "fig8" -> (() => Figure8.print(Figure8.run(spark))),
      "fig9" -> (() => Figure9.print(Figure9.run(spark))),
      "complexity" -> (() => ComplexityExperiment.print(ComplexityExperiment.run())),
    )
    require(args.length == 1 && (args(0) == "all" || tables.exists(_._1 == args(0))),
      s"usage: Reproduce <${tables.map(_._1).mkString("|")}|all>")
    for ((name, reproduce) <- tables if args(0) == "all" || args(0) == name) reproduce()
    SparkSession.getDefaultSession.foreach(_.stop())
  }
}
