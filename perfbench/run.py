#!/usr/bin/env python3
"""Benchmark entry point: builds the program from source when its sources
changed, then runs one workload in a fresh JVM.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The last line of standard output is the
result object; lines before it give provenance and, with --trace 1, spans.
Build outputs and Spark scratch space stay under $CARGO_TARGET_DIR
(default .bench_build) in the repository.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAP = "3g"
TIMEOUT_S = 170
# Spark's reflective access on JDK 17 needs these, as spark-submit adds.
ADD_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar"]
]


def spark_home():
    """The Spark install whose jars the program compiles and runs against."""
    if not os.environ.get("SPARK_HOME"):
        sys.exit("perfbench: SPARK_HOME must name the Spark install")
    return Path(os.environ["SPARK_HOME"])


def sources():
    dirs = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]
    files = sorted(p for d in dirs if d.is_dir() for p in d.rglob("*.scala"))
    return files + [ROOT / "perfbench" / "build.sh"]


def source_sha(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(out, sha):
    stamp = out / "stamp"
    if stamp.is_file() and stamp.read_text() == sha and (out / "classes").is_dir():
        return
    print(f"building into {out}", file=sys.stderr)
    subprocess.run(["bash", str(ROOT / "perfbench" / "build.sh"), str(out)], cwd=ROOT, check=True,
                   stdout=sys.stderr)
    stamp.write_text(sha)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """The result line's shape, and its metrics against BENCHMARK.json."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    assert got == want, f"metrics differ from BENCHMARK.json: got {got}, want {want}"


def selftest(lines):
    """Each workload's toy results carry exactly the promised metrics."""
    seen = set()
    for line in lines:
        row = json.loads(line) if line.startswith("{") else {}
        if "result" in row:
            check_result(row["result"], row["trace"] == 1)
            seen.add((row["selftest"], row["trace"]))
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert seen == {(w, t) for w in workloads for t in (0, 1)}, f"selftest ran {sorted(seen)}"
    print("selftest ok")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not (ROOT / "src" / "main" / "scala").is_dir():
        sys.exit("perfbench: the program's sources (src/main/scala) are missing")
    jars = spark_home() / "jars"

    files = sources()
    sha = source_sha(files)
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    build(out, sha)

    scratch = out / "run"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    java = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions",
            f"-Djava.io.tmpdir={scratch / 'tmp'}", f"-Dperfbench.localDir={scratch / 'spark'}",
            *ADD_OPENS, "-cp", f"{out / 'classes'}{os.pathsep}{jars / '*'}"]
    if a.selftest:
        cmd = java + ["perfbench.SelfTest"]
    else:
        cmd = java + ["perfbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace),
                      "--commit", git_commit(), "--source-sha", sha]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: JVM exited with code {proc.returncode} and {len(lines)} lines")
    if a.selftest:
        sys.stdout.write("\n".join(lines) + "\n")
        selftest(lines)
    else:
        check_result(json.loads(lines[-1]), a.trace == 1)
        sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
