#!/usr/bin/env python3
"""Tests of the benchmark itself (not collected by the repository's
pytest run, which looks for test_*.py).  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args], check=True,
                         capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_printed_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = bench("--workload", "group", "--seed", "3", "--seconds", "1",
                           "--trace", trace)
            self.assertTrue(result["correct"])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(printed, declared)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})


class SeedChangesInputsNotVerdict(unittest.TestCase):
    """Two seeds give different inputs and the same output-check verdict
    (every checked op passes), on a cheap slice of each workload."""

    def slice_of(self, wl, state):
        items = state["items"]
        if wl.name == "transport":
            return items[::40]
        if wl.name == "census":
            return [i for i in items if i[0] == "hidden"]
        if wl.name == "group":
            return [i for i in items if i[0] == "snf" or i[0] == "word" and len(i[2]) <= 20]
        return items

    def test_seeds(self):
        for wl in workloads.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                verdicts, inputs = [], []
                for seed in (11, 12):
                    state = wl.setup(seed)
                    wl.prepare_checks(state)
                    wl.start_pass(state)
                    inputs.append(json.dumps(wl.inputs(state)))
                    recs = [run.run_item(wl, state, i, item)
                            for i, item in enumerate(self.slice_of(wl, state))]
                    verdicts.append([r.status for r in recs])
                self.assertNotEqual(inputs[0], inputs[1])
                self.assertEqual(verdicts[0], verdicts[1])
                self.assertTrue(all(s == "ok" for s in verdicts[0]), verdicts[0])


class SlowAndFast:
    """A workload with one op that runs past its deadline and one that
    does not."""

    name = "fake"
    deadline_s = {"slow": 0.05, "fast": 5.0}

    def setup(self, seed):
        return {"items": [("slow",), ("fast",)]}

    def prepare_checks(self, state):
        pass

    def start_pass(self, state):
        pass

    def expected_ops(self, state, item):
        return 1

    def run(self, state, item):
        if item[0] == "slow":
            t_end = time.process_time() + 10
            while time.process_time() < t_end:
                pass
        return 1, item[0]


class DeadlineCounted(unittest.TestCase):
    def test_deadline_op_is_failed_not_dropped(self):
        import signal

        signal.signal(signal.SIGPROF, run._on_deadline)
        args = argparse.Namespace(seed=0, seconds=0.0, trace=0)
        metrics, info, problems = run.end_to_end(SlowAndFast(), args)
        self.assertEqual(problems, [])
        self.assertEqual(info["attempted"], 2)
        self.assertEqual(info["failed"], 1)
        self.assertEqual(info["summary"]["fail_rate"], 0.5)
        self.assertEqual(info["summary"]["ops_by_status"], {"deadline": 1, "ok": 1})
        # the failed op's time stays in the wall time of its pass
        self.assertGreaterEqual(info["summary"]["failed_ops_s"], 0.05)
        self.assertGreaterEqual(metrics["wall_s"], 0.05)


if __name__ == "__main__":
    unittest.main(verbosity=2)
