#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the driver
in perfbench/src/) as a Release build in .bench_build/; later calls
rebuild incrementally. Runs write their scratch files and the full result
document (metadata, exact counts, answer digest) under .bench_run/. The
last line of standard output is the one-line JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("knn_cold_100k", "mixed_hot_durable")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found; run from a "
             "full checkout")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured from another checkout path cannot be
        # reused; start over.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8",
                          errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)


def source_id():
    """Git commit when available, plus a hash of the sources built."""
    parts = []
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            parts.append("git:" + sha.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    parts.append("tree:" + digest.hexdigest()[:16])
    return " ".join(parts)


def run_once(workload, seed, seconds, trace, small=False, quiet=False):
    """Runs the driver; returns (exit code, result line, report dict)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    tag = "%s-seed%s-trace%d%s" % (workload, seed, trace,
                                   "-small" if small else "")
    report_path = os.path.join(RUN_DIR, tag + ".json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(".bench_run", workload),
           "--report", report_path, "--source-id", source_id()]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None, None
    lines = proc.stdout.splitlines()
    if not quiet:
        for line in lines[:-1]:
            print(line)
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None, report
    return 0, lines[-1], report


def self_test():
    """Reduced-size determinism check: the same seed twice must give
    identical exact counts, answers and input fingerprint; another seed
    must change the fingerprint."""
    build()
    ok = True
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, 2, 1, small=True, quiet=True)
                for seed in (7, 7, 8)]
        for rc, line, report in runs:
            if rc != 0 or report is None or not report["correct"]:
                print("FAIL %s: run failed or answers wrong: %s" % (
                    workload, report and report.get("failures")))
                ok = False
        if not ok:
            continue
        a, b, c = (r[2] for r in runs)
        checks = [
            ("exact counts repeat", a["counts"] == b["counts"]
             and len(a["counts"]) > 0),
            ("answers repeat", a["answers_digest"] == b["answers_digest"]),
            ("input fingerprint repeats",
             a["meta"]["input.fingerprint"] == b["meta"]["input.fingerprint"]),
            ("another seed changes the input",
             a["meta"]["input.fingerprint"] != c["meta"]["input.fingerprint"]),
        ]
        for name, passed in checks:
            print("%s %s: %s" % ("PASS" if passed else "FAIL", workload, name))
            ok = ok and passed
        if a["counts"] != b["counts"]:
            print("  counts: %s\n  vs     %s" % (a["counts"], b["counts"]))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    build()
    rc, line, report = run_once(args.workload, args.seed, args.seconds,
                                args.trace)
    if rc != 0 or line is None:
        if report is not None and report.get("failures"):
            print("perfbench: " + "; ".join(report["failures"]),
                  file=sys.stderr)
        return rc or 1
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
