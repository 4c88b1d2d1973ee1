#!/usr/bin/env python3
"""Builds and runs the engine benchmark described by BENCHMARK.json.

One workload, as a benchmark harness calls it (run from the repo root):

    python3 perfbench/run.py --workload inproc_serial --seed 1 --seconds 4 --trace 0

prints the run metadata, every metric by name with its unit, and as its
last line one JSON object whose "metrics" are BENCHMARK.json's
end_to_end list (--trace 0) or per_layer list (--trace 1).

Every workload, timed and then traced, with the tracing overhead:

    python3 perfbench/run.py --all [--seed 1] [--seconds 4]

The benchmark's own tests (unit tests, then a short smoke run of each
workload with every result checked):

    python3 perfbench/run.py --selftest

The engine is compiled from ../src with perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their trace and ledger files to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; the binary's own windows stay far below.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures (once) and builds; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "workload", "engine.h")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs]
    for target in targets:
        cmd += ["--target", target]
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    return out


def revision():
    """Git commit when the tree is a git checkout, plus a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10)
        git = commit.stdout.strip() if commit.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        git = "none"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "git-%s+src-%s" % (git, digest.hexdigest()[:12])


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def run_binary(binary, args):
    """Runs perfbench; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line, expected):
    """The result line must name exactly the expected metrics and units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: got %s, expected %s"
             % (sorted(got.items()), sorted(expected.items())))
    return result


def run_one(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)" % (args.workload, names))
    section = "per_layer" if args.trace == 1 else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[section]}
    binary = os.path.join(build(["perfbench"]), "perfbench")
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", OUT_DIR, "--commit", revision(),
        "--emit", ",".join(expected)])
    if code != 0 or not lines:
        print("\n".join(lines))
        fail("perfbench exited with code %d" % code)
    check_result(lines[-1], expected)
    print("\n".join(lines), flush=True)


def run_all(args):
    bench = load_benchmark()
    binary = os.path.join(build(["perfbench"]), "perfbench")
    commit = revision()
    overhead = []
    for workload in [w["name"] for w in bench["workloads"]]:
        qps = {}
        for trace in (0, 1):
            print("=== %s trace=%d" % (workload, trace), flush=True)
            code, lines = run_binary(binary, [
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", OUT_DIR, "--commit", commit])
            print("\n".join(lines[:-1]), flush=True)
            if code != 0:
                fail("%s trace=%d exited with code %d" % (workload, trace, code))
            result = json.loads(lines[-1])
            if not result["correct"]:
                fail("%s trace=%d returned wrong results" % (workload, trace))
            qps[trace] = result["metrics"]["qps"]["value"]
        overhead.append((workload, qps[0], qps[1]))
    print("=== tracing overhead (qps of the timed run minus the traced run)")
    for workload, timed, traced in overhead:
        print("%-16s timed %9.3f 1/s  traced %9.3f 1/s  overhead %+7.2f%%"
              % (workload, timed, traced, 100.0 * (timed - traced) / timed))


def self_test(args):
    out = build(["perfbench", "perfbench_test"])
    test = os.path.join(out, "perfbench_test")
    if not os.path.isfile(test):
        fail("perfbench_test was not built (GTest missing?)")
    if subprocess.run([test]).returncode != 0:
        fail("unit tests failed")
    bench = load_benchmark()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, lines = run_binary(os.path.join(out, "perfbench"), [
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", "1", "--trace", str(trace), "--smoke",
                "--out", OUT_DIR])
            if code != 0:
                fail("smoke %s trace=%d exited with code %d"
                     % (workload, trace, code))
            result = json.loads(lines[-1])
            ok = result["correct"] and result["failed"] == 0
            print("smoke %-14s trace=%d %s: %d queries checked"
                  % (workload, trace, "ok" if ok else "FAILED",
                     result["attempted"]), flush=True)
            if not ok:
                print("\n".join(lines), file=sys.stderr)
                fail("smoke %s trace=%d returned wrong results" % (workload, trace))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, timed and traced")
    parser.add_argument("--selftest", action="store_true",
                        help="unit tests and a smoke run of every workload")
    args = parser.parse_args()
    if not os.path.isfile(BENCHMARK_JSON):
        fail("BENCHMARK.json not found at " + BENCHMARK_JSON)
    if args.selftest:
        self_test(args)
    elif args.all:
        run_all(args)
    elif args.workload:
        run_one(args)
    else:
        parser.error("give --workload, --all or --selftest")


if __name__ == "__main__":
    main()
