package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.sys.process._
import scala.util.Try

/** Writes a bench's rows to `BENCH_<name>.json` at the repository root,
  * stamped with the git commit (`-dirty` if tracked files differ from it)
  * and the processor count, so a measured claim names the code and the
  * machine it came from.
  */
object BenchJson {

  private def git(args: String*): Option[String] =
    Try(Process("git" +: args).!!(ProcessLogger(_ => ())).trim).toOption

  private def value(x: Any): String = x match {
    case s: String => "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case x => x.toString
  }

  /** One JSON object per row, with the fields of the case class. */
  def write(name: String, rows: Seq[Product]): Unit = {
    val root = git("rev-parse", "--show-toplevel").getOrElse(".")
    val commit = git("rev-parse", "HEAD").getOrElse("unknown") +
      (if (git("status", "--porcelain", "--untracked-files=no").exists(_.nonEmpty)) "-dirty" else "")
    val objects = rows.map { r =>
      r.productElementNames.zip(r.productIterator)
        .map { case (k, v) => s"${value(k)}: ${value(v)}" }.mkString("    {", ", ", "}")
    }
    val json =
      s"""{
         |  "bench": ${value(name)},
         |  "commit": ${value(commit)},
         |  "cores": ${Runtime.getRuntime.availableProcessors},
         |  "rows": [
         |${objects.mkString(",\n")}
         |  ]
         |}
         |""".stripMargin
    val path = Paths.get(root, s"BENCH_$name.json")
    Files.write(path, json.getBytes(StandardCharsets.UTF_8))
    println(s"wrote $path")
  }
}
