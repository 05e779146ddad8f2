#!/usr/bin/env python3
"""Builds and runs the capture-machine benchmark.

    python3 perfbench/run.py --workload campaign|replay|live|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The script builds the `perfbench`
binary from source (release profile, into $CARGO_TARGET_DIR or
`.bench_build`), runs one workload (or, with `all`, each workload in
turn), checks each result line against BENCHMARK.json and prints the
host fingerprint. A workload's output ends with one JSON object:
`correct`, `attempted`, `failed` and `metrics`. The exit code is
non-zero when the build fails, any output check fails, or a result
line does not match BENCHMARK.json.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def host_fingerprint():
    """nproc, CPU model and memory: runs compare only on equal prints."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # Memory is rounded to whole GiB so a kernel reserving a few more
    # pages does not make the same host look like another one.
    return {"nproc": nproc, "cpu_model": model, "mem_gib": round(mem_kb / 2**20)}


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--offline", "--locked",
           "--manifest-path", manifest]
    try:
        # Build chatter goes to stderr: stdout carries only the report.
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return os.path.join(target, "release", "perfbench")


def check_result(result, spec, trace):
    """Problems with the result line, by BENCHMARK.json; empty if none."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    table = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name, m in got.items():
        if name not in want:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            problems.append(f"metric {name}: {m} (unit should be {want[name]})")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name} is not a finite number: {v}")
        elif not trace and v <= 0:
            problems.append(f"metric {name} is not positive: {v}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted must be a whole number >= 1: {result['attempted']}")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append(f"failed must be a whole number >= 0: {result['failed']}")
    if result["correct"] is not True:
        problems.append("the benchmark's output checks failed")
    return problems


def run_one(binary, argv, spec, trace):
    """Runs one workload; prints its report. Returns True when it passed."""
    try:
        r = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = r.stdout.splitlines()
    if r.returncode == 2 or not lines:
        fail(f"perfbench exited with code {r.returncode} and no result")
    body, last = lines[:-1], lines[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = {}
    problems = check_result(result, spec, trace) if isinstance(result, dict) else ["no result"]
    for line in body:
        print(line)
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if r.returncode != 0 or problems:
        print(f"perfbench: run failed (exit code {r.returncode})", file=sys.stderr)
        return False
    print(last)
    return True


def main(argv):
    spec = load_spec()
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    binary = build()
    # `--workload all` runs every workload of BENCHMARK.json in turn, each
    # in its own process, and fails if any of them fails.
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        at = argv.index("--workload") + 1
        passed = [run_one(binary, argv[:at] + [w["name"]] + argv[at + 1:], spec, trace)
                  for w in spec["workloads"]]
        sys.exit(0 if all(passed) else 1)
    if not run_one(binary, argv, spec, trace):
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
