"""Quick tests of the benchmark itself, on reduced inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import run as bench
import tracer as tracing
import workloads

sys.path.insert(0, bench.SRC)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class SmallLepage(workloads.LepageGeneric):
    GRID = [(2, 1, 1), (2, 1, 2), (2, 2, 1)]
    largest = "n2m1r2"


class SmallCli(workloads.CliPoly):
    largest = "alpha/n2m1"
    variants = 2
    verify_seeds = 1

    def slots(self):
        keep = ("el1/n2m1", "el2/n2m2", "kb2plain/n2m1", "split/n2m1",
                "decompose/n2m1", "alpha/n2m1", "residuallow/n3m1",
                "verify-prop-r1/n3m2", "verify-kb-first/n2m2", "verify-eq32/n3m2")
        return [s for s in super().slots() if s in keep or s in workloads.MALFORMED]


SMALL = {"lepage-generic": SmallLepage(), "cli-poly": SmallCli()}


def benchmark_spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def small_run(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, SMALL[name])
    # the set-up probe runs in a fresh interpreter on the full workload
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    bench.run(name, seed=3, seconds=0, trace=trace)
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_with_its_unit(monkeypatch, capsys, name, trace):
    spec = benchmark_spec()
    _, result = small_run(monkeypatch, capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_names_and_units_match_the_code():
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_checks_pass_on_reduced_input(monkeypatch, capsys, name):
    report, result = small_run(monkeypatch, capsys, name, 0)
    assert result["correct"], report["problems"]
    assert report["deep_checked"] > 0
    assert report["digests_checked"] > 0
    # the only failure is the known 1/0 defect of the CLI, once per pass
    known = [p for p in report["problems"] if p.startswith("bad/divzero:")]
    assert result["failed"] == len(known) == (report["passes"] if name == "cli-poly" else 0)


def test_checks_catch_a_wrong_euler_lagrange_operator(monkeypatch, capsys):
    import jetform.cli
    import jetform.forms
    original = jetform.cli.euler_lagrange

    def wrong(lam):
        return original(lam) + jetform.forms.omega(lam.ctx, 1).scale(1)

    monkeypatch.setattr(jetform.cli, "euler_lagrange", wrong)
    report, result = small_run(monkeypatch, capsys, "cli-poly", 0)
    assert not result["correct"]
    assert any("sympy" in p for p in report["problems"])


def test_a_fix_of_the_known_defect_passes_every_check(monkeypatch, capsys):
    import jetform.cli
    original = jetform.cli.main

    def fixed(argv):
        try:
            return original(argv)
        except ZeroDivisionError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    monkeypatch.setattr(jetform.cli, "main", fixed)
    report, result = small_run(monkeypatch, capsys, "cli-poly", 0)
    assert result["correct"] and result["failed"] == 0, report["problems"]


def test_host_speed_scales_by_the_samples_around_a_case():
    speed = hostspeed.HostSpeed()
    speed.at, speed.took = [1.0, 2.0, 3.0, 5.0], [0.010, 0.030, 0.020, 0.040]
    ref = hostspeed.REFERENCE_S
    assert speed.scale(1.6, 1.7) == pytest.approx(ref / 0.030)    # within the margin
    assert speed.scale(1.2, 2.2) == pytest.approx(ref / 0.020)
    assert speed.scale(3.7, 4.2) == pytest.approx(ref / 0.030)    # before and after
    assert speed.taken_within(1.5, 3.5) == pytest.approx(0.050)


def test_host_speed_samples_inside_a_long_case():
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * hostspeed.INTERVAL_S:
            pass
        t1 = time.perf_counter()
    finally:
        speed.stop()
    assert len(speed.took) >= 2
    assert 0 < speed.taken_within(t0, t1) < t1 - t0


def test_oracle_agrees_and_disagrees():
    good = ('{"terms":[{"coeff":"-u_11 - u_22","wedge":[{"i":1,"kind":"dx"},'
            '{"i":2,"kind":"dx"},{"J":[],"kind":"w","sigma":1}]}]}')
    assert workloads.oracle.euler_lagrange_matches("1/2*u_1^2 + 1/2*u_2^2", 2, 1, good)
    assert not workloads.oracle.euler_lagrange_matches("u_1^2 + 1/2*u_2^2", 2, 1, good)


def test_spans_nest_and_self_times_add_up():
    w = SMALL["cli-poly"]
    cases = bench.setup(w, 0)
    tr = tracing.Tracer(keep_spans=True)
    outcomes = bench.Outcomes(w, bench.load_pinned(w.name))
    tr.install()
    try:
        t0 = tr.clock()
        bench.run_pass(w, cases, outcomes, tr)
        wall = tr.clock() - t0
    finally:
        tr.uninstall()
    assert len(tr.spans) > 1000
    for key, start, end, parent in tr.spans:
        assert start <= end
        if parent >= 0:
            _, pstart, pend, _ = tr.spans[parent]
            assert pstart <= start and end <= pend, key
    assert all(self_s >= 0 for _, self_s, _ in tr.stats.values())
    assert sum(self_s for _, self_s, _ in tr.stats.values()) <= wall
    # every wrapper is gone again
    import jetform.symexpr
    assert not hasattr(jetform.symexpr.Scalar.__add__, "__wrapped__")
    assert not hasattr(jetform.symexpr.total_derivative, "__wrapped__")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-poly", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
