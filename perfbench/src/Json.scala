package perfbench

/** Minimal JSON writer for the result lines. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def num(x: Long): String = x.toString

  def bool(b: Boolean): String = b.toString

  def obj(kv: (String, String)*): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
