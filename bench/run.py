#!/usr/bin/env python3
"""Run one benchmark workload once and print its metrics.

    python3 bench/run.py --workload cli-poly --seed 3 --seconds 30 --trace 0

Workloads: lepage-generic, cli-poly (see bench/README.md).
One client runs the cases of a pass back to back (closed loop, one
process, no extra threads); passes repeat until ``--seconds`` have gone
by.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
Case and set-up times are scaled to the host's speed, which a fixed piece
of host work timed while the cases run follows (``hostspeed.py``).  Output
checks run outside the timed cases.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is a JSON report of the machine, the run and its samples.
Exit status is 0 when a result was printed, 2 when the run could not be
made (for example when the jetform sources are missing).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracer as tracing  # noqa: E402
import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
UNITS = {"setup_s": "s", "throughput_cases_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "largest_case_s": "s", "peak_rss_mb": "MB",
         "ok_share": "share"}


def sha16(text: str) -> str:
    """The first 16 hex digits of the sha256 of a text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def workload_why(name: str) -> str:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def load_pinned(name: str) -> dict:
    with open(os.path.join(HERE, "pinned", f"{name}.json")) as fh:
        return json.load(fh)


def setup(workload, seed):
    """Import jetform, make every case and return those of the first pass."""
    for name in workload.modules:
        importlib.import_module(name)
    workload.prepare()
    return workload.generate(seed)


def setup_time(workload, seed):
    """Time the set-up once in a fresh interpreter, so that every sample
    pays for every module jetform imports."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
           workload.name, str(seed), *workload.modules]
    # bytecode is cached, as for an installed command-line tool; only the
    # first sample compiles it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                env=env, timeout=120).stdout)


def tail_percentile(cases_per_pass):
    """The highest whole percentile from 50 to 99 that leaves ten distinct
    cases of a pass beyond it, else p50: passes repeat their cases, so
    repeats are not independent samples."""
    return float(max(50, min(99, (100 * cases_per_pass - 1000) // cases_per_pass)))


class Outcomes:
    """Per-case timings, failures and output checks of one run."""

    def __init__(self, workload, pinned):
        self.w = workload
        self.pinned = pinned
        self.times = []          # (slot, seconds) of every case run
        self.spans = []          # (timing key, slot, start, end, seconds) of each
        self.failed = set()      # indices into times of the failed cases
        self.wrong = set()       # ... of those whose output was wrong
        self.problems = []
        self.first_outputs = {}  # slot -> (index, case, out) for deep checks
        self.digests_checked = 0

    @property
    def attempted(self):
        return len(self.times)

    def _fail(self, index, case, reason, wrong):
        self.failed.add(index)
        if wrong:
            self.wrong.add(index)
        if len(self.problems) < 20:
            self.problems.append(f"{case.key}: {reason}")

    def _digest_problem(self, case, out):
        pin = self.pinned.get(case.key)
        if pin is None:
            return "no pinned digest for this case"
        if sha16(self.w.input_text(case)) != pin[0]:
            return "generated input differs from the pinned input"
        self.digests_checked += 1
        if sha16(self.w.digest(case, out)) != pin[1]:
            return "output digest differs from the pinned digest"
        return None

    def record(self, case, out, exc, t0, t1, seconds):
        index = len(self.times)
        self.times.append((case.slot, seconds))
        self.spans.append((self.w.timing_key(case), case.slot, t0, t1, seconds))
        if exc is not None:
            self._fail(index, case, f"raised {type(exc).__name__}: {exc}", False)
            return
        reason = self.w.verdict(case, out)
        if reason is None:
            self.first_outputs.setdefault(case.slot, (index, case, out))
            reason = self._digest_problem(case, out)
        if reason:
            self._fail(index, case, reason, True)

    def deep_checks(self):
        for index, case, out in self.first_outputs.values():
            reason = self.w.deep_check(case, out)
            if reason:
                self._fail(index, case, reason, True)
        return len(self.first_outputs)


def run_pass(workload, cases, outcomes, tracer=None, speed=None, between=None):
    """Run every case once, closed loop; return the summed case time.
    With ``speed``, sample the host's speed meanwhile and leave the
    samples out of the case times; call ``between()`` before each case."""
    clock = time.perf_counter
    total = 0.0
    if speed is not None:
        speed.sample()
        speed.start()
    try:
        for case in cases:
            if between is not None:
                between()
            if tracer is not None:
                tracer.on = True
            t0 = clock()
            try:
                out, exc = workload.run(case), None
            except Exception as err:  # a raising case is a failed case; go on
                out, exc = None, err
            t1 = clock()
            if tracer is not None:
                tracer.on = False
            seconds = t1 - t0 - (speed.taken_within(t0, t1) if speed is not None else 0.0)
            total += seconds
            outcomes.record(case, out, exc, t0, t1, seconds)
    finally:
        if speed is not None:
            speed.stop()
            speed.sample()
    return total


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def nearest_rank(values, pct):
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * pct // 100) - 1))
    return ordered[int(k)]


def case_metrics(w, outcomes, tail, scale):
    """Throughput and latencies over every distinct case of a pass, each at
    the median of its runs' times, each time multiplied by ``scale(t0, t1)``."""
    runs = {}
    for key, slot, t0, t1, seconds in outcomes.spans:
        runs.setdefault(key, (slot, []))[1].append(seconds * scale(t0, t1))
    cases = [(slot, statistics.median(times)) for slot, times in runs.values()]
    times = [t for _, t in cases]
    return {
        "throughput_cases_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": nearest_rank(times, tail) * 1e3,
        "largest_case_s": statistics.median(t for slot, t in cases if slot == w.largest),
    }


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def git_commit():
    """HEAD of the checkout; 'unknown' outside git."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(name, seed, seconds, trace):
    w = WORKLOADS[name]
    pinned = load_pinned(name)
    cases = setup(w, seed)
    tail = tail_percentile(len({w.timing_key(case) for case in cases}))
    outcomes = Outcomes(w, pinned)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "why": workload_why(name), "largest_case": w.largest, "machine": machine(),
              "git_commit": git_commit(), "cases_per_pass": len(cases)}

    clock = time.perf_counter
    start = clock()
    passes = 0

    def next_cases():
        nonlocal passes
        passes += 1
        return cases if passes == 1 else w.generate(seed, passes - 1)

    def more(done, lap, least):
        # whole passes only, and none that would end after --seconds if it
        # took as long as the last one, ``lap`` seconds
        return done < least or clock() - start + lap <= seconds

    setups = []   # (seconds, start, end) of every set-up
    speed = hostspeed.HostSpeed(clock=clock)

    def time_setup():
        speed.sample()
        t0 = clock()
        seconds = setup_time(w, seed)
        setups.append((seconds, t0, clock()))
        speed.sample()

    def setup_if_due():
        # the set-ups are spread evenly over the run, between its cases
        if (len(setups) < SETUP_REPEATS
                and clock() - start >= len(setups) * seconds / SETUP_REPEATS):
            speed.stop()
            time_setup()
            speed.start()

    lap = 0.0
    if not trace:
        pass_s = []
        while not pass_s or more(len(pass_s), lap, w.min_passes):
            t = clock()
            pass_s.append(run_pass(w, next_cases(), outcomes, speed=speed,
                                   between=setup_if_due))
            lap = clock() - t
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < SETUP_REPEATS:
            time_setup()
        report["passes"] = len(pass_s)
        report["pass_s"] = pass_s
        report["host_work_ms"] = {"n": len(speed.took),
                                  "quartiles": [q * 1e3 for q in quartiles(speed.took)],
                                  "reference": hostspeed.REFERENCE_S * 1e3}
    else:
        tr = tracing.Tracer()
        untraced, traced = [], []
        while not traced or more(len(traced), lap, 1):
            t = clock()
            untraced.append(run_pass(w, next_cases(), outcomes))
            tr.install()
            tr.new_pass()
            traced.append(run_pass(w, next_cases(), outcomes, tr))
            tr.uninstall()
            lap = clock() - t
        report["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        report["pass_s"] = {"untraced": untraced, "traced": traced}
        report["trace_bookkeeping_s"] = tr.overhead / len(traced)

    report["deep_checked"] = outcomes.deep_checks()
    report["digests_checked"] = outcomes.digests_checked
    report["attempted"] = outcomes.attempted
    report["failed"] = len(outcomes.failed)
    report["fail_share"] = len(outcomes.failed) / outcomes.attempted
    report["problems"] = outcomes.problems

    times = [s for _, s in outcomes.times]
    largest = [s for slot, s in outcomes.times if slot == w.largest]
    raw_setups = [s for s, _, _ in setups]
    report["samples"] = {
        "setup_s": {"n": len(setups), "quartiles": quartiles(raw_setups)},
        "latency_ms": {"n": len(times), "quartiles": [q * 1e3 for q in quartiles(times)]},
        "largest_case_s": {"n": len(largest), "quartiles": quartiles(largest)},
    }
    report["distinct_cases"] = len({span[0] for span in outcomes.spans})
    report["tail_percentile"] = tail

    if trace:
        metrics = tr.metrics(len(traced), statistics.median(traced),
                             statistics.median(untraced))
        report["property_shares"] = {
            k: metrics[k]["value"] for k in (
                "symexpr.total_derivative.atom_repeat_share",
                "symexpr.partial.nonzero_share", "forms.wedge.kept_share",
                "selfcheck.share", "trace.overhead_share")}
    else:
        values = {
            "setup_s": statistics.median(s * speed.scale(t0, t1) for s, t0, t1 in setups),
            **case_metrics(w, outcomes, tail, speed.scale),
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1 - len(outcomes.failed) / outcomes.attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        report["unscaled"] = {"setup_s": statistics.median(raw_setups),
                              **case_metrics(w, outcomes, tail, lambda t0, t1: 1.0)}

    for k, v in metrics.items():
        print(f"{k:48s} {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(f"checks: {outcomes.attempted} cases, {len(outcomes.failed)} failed, "
          f"{len(outcomes.wrong)} with wrong output", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not outcomes.wrong, "attempted": outcomes.attempted,
                      "failed": len(outcomes.failed), "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jetform", "__init__.py")):
        print(f"error: no jetform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
