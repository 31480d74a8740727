#!/usr/bin/env python3
"""Run one Flood benchmark workload and print its metrics.

Usage, from the repository root:

    python3 floodbench/run.py --workload osm-olap --seed 1 --seconds 10 --trace 0
    python3 floodbench/run.py --regen-calibration

The first call builds the benchmark (sbt, in floodbench/) and records the
JVM classpath; later calls start the benchmark JVM directly. The build is
redone when a source file changes. Everything built or written goes under
.bench_build/ and floodbench/target/ of the checkout.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCES = os.path.join(ROOT, "src", "main", "scala")
WORK = os.path.join(ROOT, ".bench_build")
LAUNCH = os.path.join(BENCH, "target", "launch.txt")
STAMP = os.path.join(WORK, "launch.stamp")
CALIBRATION = os.path.join(BENCH, "calibration", "sales-100k-8layouts-seed23.tsv")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"floodbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [SOURCES, os.path.join(BENCH, "src", "main")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_child(cmd, cwd, timeout, **kw):
    """Run `cmd` to completion; on timeout or on SIGTERM/SIGINT to this
    process, stop it and wait until it has ended. Returns its exit code, or
    None on timeout."""
    child = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL, **kw)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return None


def build(digest):
    """Compile with sbt and write the launch file (classpath + JVM flags)."""
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(WORK, 'sbt-global')}", "benchLaunch"]
    print("floodbench: building (first run in this checkout)", file=sys.stderr)
    # sbt's output goes to stderr so that stdout carries only the metrics
    code = run_child(cmd, BENCH, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    if code is None:
        fail("build timed out", 3)
    if code != 0 or not os.path.exists(LAUNCH):
        fail(f"build failed (sbt exit {code})", 3)
    with open(STAMP, "w") as fh:
        fh.write(digest)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--regen-calibration", action="store_true",
                   help="re-measure the committed cost-model calibration examples")
    a = p.parse_args()
    if not a.regen_calibration and (a.workload is None or a.seed is None or a.seconds is None):
        p.error("--workload, --seed and --seconds are required")

    # The benchmark compiles the repository's sources; without them there is
    # nothing to measure.
    if not any(f.endswith(".scala") for _, _, fs in os.walk(SOURCES) for f in fs):
        fail(f"no Scala sources under {os.path.relpath(SOURCES, ROOT)}")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)

    started = time.monotonic()
    digest = source_hash()
    stamp = open(STAMP).read() if os.path.exists(STAMP) else ""
    built = stamp != digest or not os.path.exists(LAUNCH)
    if built:
        build(digest)
    with open(LAUNCH) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    classpath, jvm_flags = lines[0], lines[1:]

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *jvm_flags, f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
           "-cp", classpath, "floodbench.Main",
           "--calibration", CALIBRATION, "--work-dir", WORK]
    if a.regen_calibration:
        cmd.append("--regen-calibration")
    else:
        # generated datasets are kept per source version
        cmd += ["--cache-dir", os.path.join(WORK, "data", digest[:16]),
                "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", a.trace]
    # A call that builds may take up to 900 s in all, any other 180 s.
    left = (890 if built else 175) - (time.monotonic() - started)
    timeout = max(1.0, min(RUN_TIMEOUT_S, left))
    code = run_child(cmd, ROOT, timeout)
    if code is None:
        fail("benchmark run timed out", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
