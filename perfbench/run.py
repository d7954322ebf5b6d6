#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (and through it the rotom library) into .bench_build/perfbench;
later calls only rebuild what changed. The benchmark binary's output is
passed through; its last line is the JSON result, which is checked against
BENCHMARK.json (every metric of the run's catalog, with its unit) before it
is printed. On a failed build, a crashed run or a malformed result this
script exits non-zero without printing a result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "perfbench_selftest", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only benchmark output.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """git sha when available, plus a hash of the library and benchmark
    sources (the checkout being measured need not be a git repository)."""
    sha = "nogit"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            sha = out.stdout.strip()
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
    return f"{sha}+src.{digest.hexdigest()[:12]}"


def load_catalog(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, catalog):
    """Returns an error string for a malformed result line, else None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["correct"], bool):
        return "correct is not a bool"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a count"
    if result["attempted"] < 1:
        return "no operation attempted"
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            return f"bad metric name {name!r}"
        if set(m) != {"value", "unit"} or not isinstance(
                m["value"], (int, float)):
            return f"bad metric entry {name}: {m}"
    if catalog is not None:
        if set(metrics) != set(catalog):
            missing = sorted(set(catalog) - set(metrics))
            extra = sorted(set(metrics) - set(catalog))
            return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
        for name, unit in catalog.items():
            if metrics[name]["unit"] != unit:
                return f"unit of {name}: {metrics[name]['unit']} != {unit}"
    return None


def selftest():
    if not build():
        return 1
    rc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                        cwd=ROOT).returncode
    for trace in (False, True):
        catalog = load_catalog(trace) or {}
        bad = [n for n in catalog if not NAME_RE.match(n)]
        print(("FAIL" if bad else "ok  ") +
              f"  BENCHMARK.json {'per_layer' if trace else 'end_to_end'} "
              f"names match [A-Za-z0-9_.-]+ {bad or ''}")
        rc = rc or (1 if bad else 0)
    return rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    catalog = load_catalog(bool(args.trace))
    env = dict(os.environ, PERFBENCH_GIT_SHA=source_id())
    work_dir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(BUILD_DIR))
    try:
        cmd = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"run exceeded {RUN_TIMEOUT_S} s")
            return 1
        log(f"run took {time.monotonic() - start:.1f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"benchmark exited with code {proc.returncode}")
        return proc.returncode
    error = check_result(lines[-1], catalog)
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("malformed result: " + error)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
