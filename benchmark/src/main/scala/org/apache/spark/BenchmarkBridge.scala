package org.apache.spark

/** Spark keeps its listener bus package-private. The benchmark waits for
  * queued listener events before it reads the counters of a traced span,
  * so this one accessor lives in Spark's package.
  */
object BenchmarkBridge {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
