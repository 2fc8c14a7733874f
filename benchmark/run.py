#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles the program (src/main/scala) together
with the benchmark code (benchmark/src) with sbt; later runs reuse the
classes while the sources are unchanged. The workload then runs in one JVM
(Spark in local mode, one core per processor). Its last line of standard
output is the result: one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The full result of every run, with the environment stamp,
all samples and (traced) all spans, is kept in .bench_build/results/.

Needs `java`, `sbt` and SPARK_HOME (a Spark distribution whose jars/ holds
Spark and the Scala library).
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
CLASSES = os.path.join(HERE, "target", "scala-2.13", "classes")
STAMP = os.path.join(BUILD, "build.digest")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"
TIMING_METRICS = ["detect_s", "scratch_s", "update_b100_s", "update_b1k_s"]

# Module opens Spark needs on JDK 17 (the same list as the root build).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s", 3)
    return p.returncode, out, err


def build(src_digest):
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == src_digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    # Keeps every JVM the sbt launcher starts from writing perf data to /tmp.
    env["JAVA_TOOL_OPTIONS"] = (env.get("JAVA_TOOL_OPTIONS", "") + " -XX:-UsePerfData").strip()
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    log = os.path.join(BUILD, "build.log")
    tmp = os.path.join(BUILD, "tmp")
    with open(log, "w") as fh:
        code, _, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                                  f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}",
                                  "compile"], BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=fh,
                                 stderr=subprocess.STDOUT)
    if code != 0:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"build failed (exit {code}); log in {log}", 4)
    with open(STAMP, "w") as fh:
        fh.write(src_digest + "\n")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_times():
    """Aggregate CPU times from /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to others between two samples."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def untraced_medians(workload):
    """Median over this checkout's untraced results of each timing metric."""
    per_metric = {m: [] for m in TIMING_METRICS}
    for name in os.listdir(RESULTS):
        if not (name.startswith(workload + ".trace0.") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(RESULTS, name)) as fh:
                metrics = json.load(fh)["metrics"]
        except (OSError, ValueError, KeyError):
            continue
        for m in TIMING_METRICS:
            if m in metrics:
                per_metric[m].append(metrics[m]["value"])
    return {m: statistics.median(v) for m, v in per_metric.items() if v}


def overhead_share(workload, traced_result):
    """Median relative excess of traced over untraced end-to-end timings."""
    base = untraced_medians(workload)
    shares = []
    for m, v in base.items():
        s = traced_result["samples"].get(m)
        if s and v > 0:
            shares.append(s["median"] / v - 1.0)
    return statistics.median(shares) if shares else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail(f"no program sources under {PROGRAM_SOURCES}: run from a full checkout")
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not os.path.isdir(os.path.join(spark_home, "jars")):
        fail("SPARK_HOME must name a Spark distribution with a jars/ directory")
    for d in (RESULTS, os.path.join(BUILD, "tmp"), os.path.join(BUILD, "spark-local")):
        os.makedirs(d, exist_ok=True)

    src_digest = digest()
    build(src_digest)

    out = os.path.join(RESULTS, f"{a.workload}.trace{a.trace}.seed{a.seed}.{time.time_ns()}.json")
    cmd = (["java", f"-Xmx{HEAP}", "-XX:-UsePerfData"] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS] + [
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={os.path.join(BUILD, 'spark-local')}",
        f"-Dspark.sql.warehouse.dir={os.path.join(BUILD, 'spark-warehouse')}",
        f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}",
        f"-Drepro.bench.git={git_sha()}",
        f"-Drepro.bench.digest={src_digest}",
        "-cp", os.pathsep.join([CLASSES, os.path.join(spark_home, "jars", "*")]),
        "repro.benchmark.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--out", out,
    ])
    cpu0 = cpu_times()
    code, stdout, _ = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    steal = steal_share(cpu0, cpu_times())
    lines = stdout.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")) + "\n")
        fail(f"workload {a.workload} exited with {code}", code if code > 0 else 5)
    result = json.loads(lines[-1])
    with open(out) as fh:
        full = json.load(fh)
    # Time stolen by other guests of the host explains run-to-run noise.
    full["env"]["cpu_steal_share"] = steal
    if a.trace == "1":
        share = overhead_share(a.workload, full)
        result["metrics"]["trace.overhead_share"]["value"] = share
        full["metrics"]["trace.overhead_share"]["value"] = share
    with open(out, "w") as fh:
        json.dump(full, fh)
    for l in lines[:-1]:
        print(l)
    if steal is not None:
        print(f"# cpu steal share during the run: {steal:.4f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
