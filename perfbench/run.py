#!/usr/bin/env python3
"""Benchmark of orthlat: one seeded workload per run, end-to-end metrics
untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload transport --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` next to this directory.
The run sets up the workload several times (set-up time is the median
plus the median import time in fresh interpreters), then runs whole
passes over the seeded inputs, one op at a time in a closed loop with
one client and no threads, until another pass would not fit in
``--seconds``.  Every op checks its own output; ops past their CPU-time
deadline count as failed and are never retried or dropped.  Times are
scaled to a fixed interpreter speed by SpeedProbe.

With ``--trace 1`` it instead runs set-up and one pass untraced, then
the same set-up and pass with every layer wrapped (see layers.py), checks
that both passes give identical outputs, and reports per-layer figures.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when an output check
failed, 2 when the program cannot be imported, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
IMPORT_REPS = 7
# Times are reported in seconds of an interpreter on which reference_task
# takes REFERENCE_S; see SpeedProbe.
REFERENCE_S = 0.005
PROBE_EVERY_S = 0.25
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t0)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


class Deadline(BaseException):
    """Raised inside an op when its CPU-time deadline expires.  A
    BaseException, so that no ``except Exception`` in the program under
    test can swallow it."""


def _on_deadline(signum, frame):
    raise Deadline()


@dataclass
class Record:
    index: int
    n_ops: int
    seconds: float
    status: str          # ok | deadline | wrong | error | setup | import
    digest: str | None
    detail: str = ""
    start: float = 0.0
    end: float = 0.0
    scale: float = 1.0   # set from SpeedProbe samples

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def reference_task() -> int:
    """A fixed exact-arithmetic job (a 7x7 Gauss-Jordan inverse over
    Fraction) on the standard library only, no orthlat code, so that its
    time tracks the interpreter's speed and not the program's."""
    n = 7
    a = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 4) + (4 if i == j else 0)
          for j in range(n)] for i in range(n)]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p], b[k], b[p] = a[p], a[k], b[p], b[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        b[k] = [x * inv for x in b[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                b[i] = [x - f * y for x, y in zip(b[i], b[k])]
    return sum(x.numerator for row in b for x in row)


class SpeedProbe:
    """Times reference_task every PROBE_EVERY_S of wall time, from a
    SIGALRM handler, so also in the middle of long ops.

    On a shared host the interpreter's speed changes by up to 1.7x, from
    one second to the next and over minutes, for the same code on the
    same input.  Every timed thing (op, set-up, import) is scaled by
    REFERENCE_S / the mean reference time measured during it and within
    PROBE_EVERY_S around it, which cancels those changes.  The handler's
    own time is taken out of the op it interrupted and out of the op's
    CPU deadline, and it runs with the garbage collector off so that the
    program's heap cannot change the reference.  Raw times are in the
    summary line."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (when, seconds)
        self.spent = 0.0
        reference_task()   # warm, untimed

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def sample(self):
        self._on_timer(signal.SIGALRM, None)

    def _on_timer(self, signum, frame):
        deadline = signal.setitimer(signal.ITIMER_PROF, 0)
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            reference_task()
        finally:
            t1 = time.perf_counter()
            if collecting:
                gc.enable()
        if deadline[0] > 0:
            signal.setitimer(signal.ITIMER_PROF, *deadline)
        self.samples.append((t1, t1 - t0))
        self.spent += t1 - t0

    def stop(self):
        """Stop the timer and take a last sample, after the last op."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def scale(self, rec) -> float:
        window = PROBE_EVERY_S
        while True:
            near = [s for t, s in self.samples
                    if rec.start - window <= t <= rec.end + window]
            if near:
                return REFERENCE_S / statistics.fmean(near)
            window *= 2


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def run_item(wl, state, index: int, item, tracer=None, probe=None) -> Record:
    from workloads import CheckFailed

    spent = probe.spent if probe is not None else 0.0
    signal.setitimer(signal.ITIMER_PROF, wl.deadline_s[item[0]])
    t0 = time.perf_counter()
    status, detail, out, n = "ok", "", None, 0
    try:
        try:
            n, out = wl.run(state, item)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except Deadline:
        status = "deadline"
    except CheckFailed as exc:
        status, detail = "wrong", str(exc)
    except Exception as exc:  # a failed op is counted, never fatal to the run
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    dt = t1 - t0 - (probe.spent - spent if probe is not None else 0.0)
    if tracer is not None:
        tracer.settle()
    if status != "ok":
        return Record(index, wl.expected_ops(state, item), dt, status, None, detail, t0, t1)
    return Record(index, n, dt, status, digest(out), "", t0, t1)


def run_pass(wl, state, tracer=None, probe=None) -> list[Record]:
    wl.start_pass(state)
    return [run_item(wl, state, i, item, tracer, probe)
            for i, item in enumerate(state["items"])]


def import_times(reps: int, probe: SpeedProbe) -> list[Record]:
    """Times to import the program in fresh interpreters (the import is
    paid once per process, so it is measured in new ones).  This process
    and the interpreters it starts share one CPU, and the probe samples
    between them, so that the samples see the speed the imports saw."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
    except OSError:   # pinning refused: measure unpinned
        pass
    times = []
    try:
        probe.sample()
        for _ in range(reps):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            times.append(Record(-1, 0, float(out.stdout), "import", None, "", t0,
                                time.perf_counter()))
            probe.sample()
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def timed_setup(wl, seed: int, reps: int, probe: SpeedProbe | None = None):
    times = []
    for _ in range(reps):
        spent = probe.spent if probe is not None else 0.0
        t0 = time.perf_counter()
        state = wl.setup(seed)
        t1 = time.perf_counter()
        dt = t1 - t0 - (probe.spent - spent if probe is not None else 0.0)
        times.append(Record(-1, 0, dt, "setup", None, "", t0, t1))
    wl.prepare_checks(state)
    return state, times


def weighted_quantile(pairs: list[tuple[float, float]], q: float) -> float:
    """Quantile of values given as (value, weight): the first value at
    which the cumulative weight reaches q of the total (for integer
    weights, the nearest rank on the expanded sample)."""
    pairs = sorted(pairs)
    rank = q * sum(w for _, w in pairs)
    seen = 0
    for value, w in pairs:
        seen += w
        if seen >= rank:
            return value
    return pairs[-1][0]


def check_passes(passes: list[list[Record]]) -> list[str]:
    """Problems that make the run incorrect: failed output checks, and
    outputs of one item that differ between passes."""
    problems = []
    first: dict[int, str] = {}
    for recs in passes:
        for r in recs:
            if r.status == "wrong":
                problems.append(f"item {r.index}: {r.detail}")
            elif r.digest is not None:
                if first.setdefault(r.index, r.digest) != r.digest:
                    problems.append(f"item {r.index}: output changed between passes")
    return problems


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, wl) -> dict:
    from orthlat import kernels

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernels_backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_deadline_cpu_s": wl.deadline_s,
        "setup_reps": SETUP_REPS,
        "import_reps": IMPORT_REPS,
    }


def measure(wl, state, seconds: float, probe: SpeedProbe) -> list[list[Record]]:
    """Whole passes until another would not fit in ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(wl, state, probe=probe))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(wl, args) -> tuple[dict, dict, list[str]]:
    probe = SpeedProbe()
    imports = import_times(IMPORT_REPS, probe)
    probe.start()
    try:
        state, setups = timed_setup(wl, args.seed, SETUP_REPS, probe)
        passes = measure(wl, state, args.seconds, probe)
    finally:
        probe.stop()
    records = [r for recs in passes for r in recs]
    for r in imports + setups + records:
        r.scale = probe.scale(r)
    attempted = sum(r.n_ops for r in records)
    failed = sum(r.n_ops for r in records if r.status != "ok")

    def latencies(t) -> list[tuple[float, int]]:
        # a failed op counts as slower than any latency limit
        return [(t(r) / r.n_ops if r.status == "ok" else math.inf, r.n_ops)
                for r in records if r.n_ops]

    def figures(t) -> dict:
        """End-to-end figures with t(record) as the time of a record."""
        return {
            "setup_s": statistics.median(map(t, imports)) + statistics.median(map(t, setups)),
            "wall_s": statistics.median([sum(map(t, recs)) for recs in passes]),
            "ops_per_s": (attempted - failed) / sum(map(t, records)),
            "op_ms.p50": 1000 * weighted_quantile(latencies(t), 0.5),
        }

    metrics = figures(lambda r: r.scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_status: dict[str, int] = {}
    for r in records:
        by_status[r.status] = by_status.get(r.status, 0) + r.n_ops
    summary = {
        "raw_seconds": figures(lambda r: r.seconds),
        "reference_ms": [round(1000 * x, 3) for _, x in probe.samples],
        "passes": len(passes),
        "items_per_pass": len(state["items"]),
        "ops_per_pass": attempted // len(passes),
        "import_s": [r.scaled for r in imports],
        "setup_reps_s": [r.scaled for r in setups],
        "pass_wall_s": [sum(r.scaled for r in recs) for recs in passes],
        "fail_rate": failed / attempted,
        "ops_by_status": by_status,
        "failed_ops_s": sum(r.scaled for r in records if r.status != "ok"),
        "latency_samples": attempted,
        "failures": sorted({f"item {r.index}: {r.status} {r.detail}".strip()
                            for r in records if r.status != "ok"}),
    }
    if attempted >= 100:
        p90 = weighted_quantile(latencies(lambda r: r.scaled), 0.9)
        summary["op_ms.p90"] = 1000 * p90 if p90 < math.inf else "past deadline"
    result = {"attempted": attempted, "failed": failed}
    return metrics, {"summary": summary, **result}, check_passes(passes)


def per_layer(wl, args) -> tuple[dict, dict, list[str]]:
    from layers import Tracer

    state, setup_times = timed_setup(wl, args.seed, 1)
    plain = run_pass(wl, state)
    untraced_s = setup_times[0].seconds + sum(r.seconds for r in plain)

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced_state = wl.setup(args.seed)
        traced_setup_s = time.perf_counter() - t0
    wl.prepare_checks(traced_state)
    with tracer:
        traced = run_pass(wl, traced_state, tracer)
    traced_s = traced_setup_s + sum(r.seconds for r in traced)

    problems = check_passes([plain, traced])
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["trace.covered_ratio"] = tracer.covered_s() / traced_s
    records = plain + traced
    top = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
    summary = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "largest_self_s": [[k, round(v, 4)] for v, k in top[:8]],
        "status_differs": [a.index for a, b in zip(plain, traced) if a.status != b.status],
    }
    result = {"attempted": sum(r.n_ops for r in records),
              "failed": sum(r.n_ops for r in records if r.status != "ok")}
    return metrics, {"summary": summary, **result}, problems


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(workloads.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"orthlat was imported from {workloads.cli.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGPROF, _on_deadline)

    print(json.dumps({"env": environment(args, wl)}))
    if args.trace:
        metrics, info, problems = per_layer(wl, args)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, info, problems = end_to_end(wl, args)
        units = END_TO_END_UNITS
    print(json.dumps(info["summary"]))
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
