#!/usr/bin/env python3
"""Repeats benchmark runs and summarises them against BENCHMARK.json.

    python3 perfbench/stats.py sweep --workload replay --seeds 1-10 --out DIR
    python3 perfbench/stats.py spread DIR_OR_LOG...
    python3 perfbench/stats.py compare BASE_DIR NEW_DIR

`sweep` runs `perfbench/run.py` once per seed and keeps each run's
stdout as `DIR/<workload>-t<trace>-s<seed>.log`. `spread` prints, per
workload and end-to-end metric, the median of the runs and the distance
between the first and third quartiles as a share of it, next to the
metric's bound. `compare` prints each median's change from BASE to NEW
and flags a change worse than the bound. Both refuse to mix runs whose
host fingerprints (nproc, CPU model, memory) differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FingerprintMismatch(Exception):
    pass


def parse_log(text):
    """(workload, trace, host, result) of one run's stdout."""
    workload = trace = host = None
    for line in text.splitlines():
        if line.startswith("# perfbench "):
            fields = dict(f.split("=", 1) for f in line.split()[2:])
            workload, trace = fields["workload"], fields["trace"] == "1"
        elif line.startswith("host "):
            host = json.loads(line[5:])
    last = text.strip().splitlines()[-1] if text.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return workload, trace, host, result


def load_runs(paths):
    """Untraced results grouped by workload; one fingerprint for all."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".log")]
        else:
            files.append(p)
    runs, hosts = {}, {}
    for f in files:
        with open(f) as fh:
            workload, trace, host, result = parse_log(fh.read())
        if result is None or trace or workload is None:
            continue
        hosts[json.dumps(host, sort_keys=True)] = f
        runs.setdefault(workload, []).append(result)
    if len(hosts) > 1:
        raise FingerprintMismatch(
            "runs come from different hosts: " + "; ".join(f"{h} ({f})" for h, f in hosts.items()))
    return runs, next(iter(hosts), None)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarise(results):
    """name -> (median, IQR share of median, values)."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
        else:
            share = 0.0
        out[name] = (med, share, values)
    return out


def cmd_sweep(args):
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    os.makedirs(args.out, exist_ok=True)
    for seed in seeds:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        path = os.path.join(args.out, f"{args.workload}-t{args.trace}-s{seed}.log")
        with open(path, "w") as f:
            f.write(r.stdout)
        tail = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        print(f"seed {seed}: exit {r.returncode} {tail}", flush=True)
        if r.returncode != 0:
            return 1
    return 0


def cmd_spread(args):
    runs, host = load_runs(args.paths)
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    print(f"host {host}")
    worst = 0.0
    for workload, results in sorted(runs.items()):
        for name, (med, share, values) in summarise(results).items():
            bound = bounds.get(name, float("nan"))
            ratio = share / bound if bound else float("inf")
            if name != "setup_s":
                worst = max(worst, ratio)
            print(f"{workload:9} {name:16} n={len(values):2} median {med:14.6g} "
                  f"spread {share:7.2%} bound {bound:5.0%} ({ratio:.2f} of bound)")
    print(f"widest spread (setup_s aside): {worst:.2f} of its bound")
    return 0


def cmd_compare(args):
    base, base_host = load_runs([args.base])
    new, new_host = load_runs([args.new])
    if base_host != new_host:
        raise FingerprintMismatch(f"base host {base_host} != new host {new_host}")
    table = {m["name"]: m for m in spec()["end_to_end"]}
    status = 0
    for workload in sorted(set(base) & set(new)):
        b, n = summarise(base[workload]), summarise(new[workload])
        for name, m in table.items():
            if name not in b or name not in n:
                continue
            change = n[name][0] / b[name][0] - 1
            worse = -change if m["better"] == "higher" else change
            flag = "WORSE than bound" if worse > m["bound"] else "ok"
            if worse > m["bound"]:
                status = 1
            print(f"{workload:9} {name:16} {b[name][0]:14.6g} -> {n[name][0]:14.6g} "
                  f"({change:+.2%}, bound {m['bound']:.0%}) {flag}")
    return status


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("paths", nargs="+")
    s = sub.add_parser("compare")
    s.add_argument("base")
    s.add_argument("new")
    args = p.parse_args(argv)
    try:
        return {"sweep": cmd_sweep, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)
    except FingerprintMismatch as e:
        print(f"refusing to compare: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
