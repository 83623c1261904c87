#!/usr/bin/env bash
# Build file of the benchmark: compiles the program's sources and the
# benchmark's own sources with the Scala compiler that ships in Spark's
# jar directory (no sbt, no dependency resolution).
#
#   bash perfbench/build.sh OUT_DIR
#
# Run from the repository root. Classes land in OUT_DIR/classes.
set -euo pipefail
out="$1"
spark_jars="${SPARK_HOME:?SPARK_HOME must name the Spark install}/jars"
rm -rf "$out/classes"
mkdir -p "$out/classes"
find src/main/scala perfbench/src -name '*.scala' | sort > "$out/sources.txt"
java -Xmx2g -Xss8m -XX:-UsePerfData -cp "$spark_jars/*" scala.tools.nsc.Main \
  -usejavacp -nowarn -d "$out/classes" "@$out/sources.txt"
