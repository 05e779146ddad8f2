"""Self-tests of the benchmark: each deliberate fault must fail the command.

    python3 -m unittest discover -s perfbench/tests

Run from the root of the repository. The tests build the benchmark
through `perfbench/run.py` and run the `replay` workload with a
one-second budget, so the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stats  # noqa: E402


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", "replay", "--seed", "7", "--seconds", "1"] + list(args)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


class FaultsFailTheCommand(unittest.TestCase):
    def assert_fails(self, r, needle):
        self.assertNotEqual(r.returncode, 0, r.stdout)
        self.assertIn(needle, r.stdout)
        self.assertIsNone(result_line(r.stdout), "a failed run must not print a result")

    def test_clean_run_passes(self):
        r = bench("--trace", "0")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        result = result_line(r.stdout)
        self.assertTrue(result["correct"])
        self.assertIn("host ", r.stdout)

    def test_wrong_dataset_digest_fails(self):
        self.assert_fails(bench("--trace", "0", "--inject", "digest"), "serial oracle")

    def test_ledger_that_does_not_conserve_fails(self):
        self.assert_fails(bench("--trace", "1", "--inject", "ledger"), "does not conserve")

    def test_missing_metric_fails(self):
        self.assert_fails(bench("--trace", "0", "--inject", "metric"),
                          "metric records_per_s missing")

    def test_bare_benchmark_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            r = bench("--trace", "0", cwd=d)
        self.assertNotEqual(r.returncode, 0)
        self.assertIsNone(result_line(r.stdout))


class Bookkeeping(unittest.TestCase):
    def test_mapping_covers_every_per_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(ROOT, "perfbench", "mapping.json")) as f:
            mapping = json.load(f)["per_layer"]
        self.assertEqual(sorted(mapping), sorted(m["name"] for m in spec["per_layer"]))
        workloads = {w["name"] for w in spec["workloads"]}
        for name, m in mapping.items():
            self.assertTrue(set(m["on"]) <= workloads, name)

    def test_compare_refuses_runs_from_different_hosts(self):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"records_per_s": {"value": 1.0, "unit": "1/s"}}}

        def log(host):
            return ("# perfbench workload=replay seed=1 seconds=1 trace=0\n"
                    f"host {json.dumps(host)}\n{json.dumps(result)}\n")

        with tempfile.TemporaryDirectory() as d:
            for i, nproc in enumerate((2, 4)):
                with open(os.path.join(d, f"run{i}.log"), "w") as f:
                    f.write(log({"nproc": nproc, "cpu_model": "x", "mem_gib": 16}))
            with self.assertRaises(stats.FingerprintMismatch):
                stats.load_runs([d])
            os.remove(os.path.join(d, "run1.log"))
            runs, _ = stats.load_runs([d])
            self.assertEqual(len(runs["replay"]), 1)


if __name__ == "__main__":
    unittest.main()
