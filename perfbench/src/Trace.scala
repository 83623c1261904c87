package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One recorded span: a call into a layer, timed from the benchmark's
  * side. `parent` is the id of the enclosing span, or -1 at the top.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long, gcMs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. When disabled, `span` only runs its body, so
  * the untimed and timed code paths make the same calls into the program.
  */
final class Tracer(val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[Int]
  private var nextId = 0

  def span[T](name: String)(body: => T): T = {
    if (!enabled) return body
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack.push(id)
    val gc0 = Tracer.gcMillis()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack.pop()
      spans += Span(id, name, parent, t0, t1, Tracer.gcMillis() - gc0)
    }
  }

  /** The last finished span with this name. */
  def last(name: String): Span = spans.filter(_.name == name).last

  /** Duration minus the part covered by direct children. Children never
    * overlap one another, since spans nest on one driver thread.
    */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.filter(_.parent == s.id).map(_.seconds).sum
}

object Tracer {
  /** Total GC time of this JVM so far, over all collectors. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}

/** Per-task timings of one job group, from Spark's listener bus. */
final case class TaskStats(durations: Seq[Double], runSeconds: Double) {
  def p50: Double = Stats.median(durations)
  def max: Double = if (durations.isEmpty) 0.0 else durations.max
}

/** Collects task-end events for stages started under a job group. Events
  * reach the listener asynchronously; `collect` runs a marker job and
  * waits for its end event, which the bus delivers after every earlier
  * one, then hands over and forgets the group's tasks.
  */
final class TaskListener extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobGroup = mutable.Map.empty[Int, String]
  private val tasks = mutable.Map.empty[String, mutable.ArrayBuffer[(Double, Double)]]
  private val endedGroups = mutable.Set.empty[String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    g.foreach { group =>
      jobGroup(e.jobId) = group
      e.stageIds.foreach(stageGroup(_) = group)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { group =>
      val run = if (e.taskMetrics == null) 0.0 else e.taskMetrics.executorRunTime / 1e3
      tasks.getOrElseUpdate(group, mutable.ArrayBuffer.empty) += ((e.taskInfo.duration / 1e3, run))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.get(e.jobId).foreach(endedGroups += _)
    notifyAll()
  }

  private var markers = 0

  def collect(sc: SparkContext, group: String): TaskStats = {
    val marker = s"marker-$markers"; markers += 1
    sc.setJobGroup(marker, marker)
    sc.parallelize(Seq(1), 1).count()
    sc.clearJobGroup()
    synchronized {
      val deadline = System.currentTimeMillis() + 30000
      while (!endedGroups.contains(marker) && System.currentTimeMillis() < deadline) wait(100)
      require(endedGroups.contains(marker), "listener bus did not drain within 30 s")
      val ts = tasks.remove(group).getOrElse(mutable.ArrayBuffer.empty)
      TaskStats(ts.map(_._1).toSeq, ts.map(_._2).sum)
    }
  }
}

object Stats {
  /** Median of a run's passes after the first `warm`. Pass times fall
    * over the first passes of a JVM while code is compiled and the heap
    * grows, so those are treated as warm-up.
    */
  def steadyMedian(xs: Seq[Double], warm: Int): Double = median(xs.drop(warm))

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted; val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}
