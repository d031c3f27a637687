"""The example scripts run to completion against the library."""

import argparse
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["scripts/reproduce_formulas.py"],
                                  ["scripts/identity_sweep.py", "--seeds", "1"]])
def test_script_exits_0(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ab_lepage_times_a_tree_against_itself():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "scripts/ab_lepage.py", "src", "src",
                           "--cases", "n2m1r1", "lepage-check/n2m1r2", "alpha/n2m1",
                           "verify/prop-da/n2m1", "cli/el/n2m1", "cli/split/n2m1",
                           "cli/alpha/n1m1", "parse/el/n2m1", "parse/alpha/n2m1",
                           "tower/n2m1r2/generalized", "--reps", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows, total = proc.stdout.splitlines()
    assert header.split() == ["case", "a_median_s", "b_median_s", "b/a",
                              "pair_b/a", "b_wins"]
    assert [row.split()[0] for row in rows] == ["n2m1r1", "lepage-check/n2m1r2", "alpha/n2m1",
                                                  "verify/prop-da/n2m1", "cli/el/n2m1",
                                                  "cli/split/n2m1", "cli/alpha/n1m1",
                                                  "parse/el/n2m1", "parse/alpha/n2m1",
                                                  "tower/n2m1r2/generalized"]
    assert all(row.split()[-1] in ("0/1", "1/1") for row in rows)
    assert total.split()[0] == "total"
    # one repetition: the median of the per-pair ratios is that pair's
    # ratio, which is also the ratio of the medians
    for line in rows + [total]:
        ratio, pair = line.split()[3:5]
        assert float(pair) > 0 and pair == ratio


def _ab_lepage():
    spec = importlib.util.spec_from_file_location("ab_lepage", ROOT / "scripts" / "ab_lepage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_lepage_takes_any_lepage_case_and_keeps_the_default_grid():
    ab = _ab_lepage()
    for case in ("n4m2r2", "n1m1r1", "n12m3r2", "n2m1r1"):
        assert ab.case_name(case) == case
    for case in ("n0m1r1", "n2m0r2", "n2m1r3", "n2m1r0", "n02m1r1", "n2m1", "n2m1r1x"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab.case_name(case)
    for case in ("lepage-check/n3m2r2", "lepage-check/n4m2r1"):
        assert ab.case_name(case) == case
    for case in ("lepage-check/n2m1r3", "lepage-check/n2m1", "lepage-check/alpha/n2m1"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab.case_name(case)
    assert ab.GRID == [f"n{n}m{m}r{r}" for n in (2, 3, 4) for m in (1, 2) for r in (1, 2)
                       if (n, m, r) != (4, 2, 2)]
    # a case off the grid runs: n1m1r2 is the cheapest
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "scripts/ab_lepage.py", "src", "src",
                           "--cases", "n1m1r2", "--reps", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[1].split()[0] == "n1m1r2"


def test_ab_lepage_runs_each_side_against_its_own_modules():
    # the two sides number their covectors differently, so a call-time
    # import that reached the other side's printers would misread a mask:
    # Form.__repr__ imports form_text when it runs
    ab = _ab_lepage()
    saved = {k: v for k, v in sys.modules.items() if k == "jetform" or k.startswith("jetform.")}
    try:
        sides = [ab.load(str(ROOT / "src")), ab.load(str(ROOT / "src"))]
        ctx_a, ctx_b = (side["forms"].Context(n=2, m=1) for side in sides)
        rho = sides[0]["forms"].omega(ctx_a, 1, 2)
        sides[1]["forms"].dx(ctx_b, 1)
        assert sides[0]["forms"]._COVS[0] != sides[1]["forms"]._COVS[0]
        for side in (sides[0], sides[1], sides[0]):
            ab.run_case(side, "n1m1r1", "L0")
            if side is sides[0]:
                assert repr(rho) == "Form(w(u,2))"
    finally:
        for k in [k for k in sys.modules if k == "jetform" or k.startswith("jetform.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def test_ab_lepage_cli_density_cases_take_an_order():
    ab = _ab_lepage()
    for case in ("cli/kb/n2m1r2", "cli/el/n3m2r1", "cli/pc/n2m2", "cli/split/n2m1"):
        assert ab.case_name(case) == case
    for case in ("cli/kb/n2m1r3", "cli/kb/n2m1r0", "cli/split/n2m1r2", "cli/alpha/n2m1r1"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab.case_name(case)
    # an order-2 kb request runs the plain variant, whose closed form is
    # cross-checked against the recurrence, at -r 2
    argvs = []
    side = {name: importlib.import_module(f"jetform.{name}")
            for name in ("forms", "printers", "randomgen")}
    side["cli"] = types.SimpleNamespace(main=lambda argv: argvs.append(argv) or 0)
    ab.run_cli(side, "cli/kb/n2m1r2")
    assert len(argvs) == len(ab.SEEDS)
    assert all(argv[:7] == ["kb", "-n", "2", "-m", "1", "-r", "2"] for argv in argvs)
    assert any("u_11" in argv[-1] or "u_12" in argv[-1] or "u_22" in argv[-1] for argv in argvs)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "scripts/ab_lepage.py", "src", "src",
                           "--cases", "cli/kb/n2m1r2", "--reps", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[1].split()[0] == "cli/kb/n2m1r2"


def test_ab_lepage_check_case_times_only_the_lepage_check(monkeypatch):
    # the closed form is built before the clock starts; the case reports
    # the check's ok, which both report layouts have
    ab = _ab_lepage()
    side = {name: importlib.import_module(f"jetform.{name}") for name in ("forms", "lepage")}
    side["modules"] = {}
    events = []
    lepage = side["lepage"]
    closed, check = lepage.krupka_betounes_first, lepage.lepage_check
    monkeypatch.setattr(lepage, "krupka_betounes_first",
                        lambda lam: events.append("closed") or closed(lam))
    monkeypatch.setattr(lepage, "lepage_check",
                        lambda rho, lam: events.append("check") or check(rho, lam))
    monkeypatch.setattr(ab, "time", types.SimpleNamespace(
        perf_counter=lambda: events.append("clock") or float(len(events))))
    elapsed, out = ab.run_case(side, "lepage-check/n2m1r1", "Lcheck")
    assert out == [True]
    assert events == ["closed", "clock", "check", "clock"]
    assert elapsed == 2.0


def test_ab_lepage_parse_cases_time_the_parser_on_the_cli_inputs(monkeypatch):
    # parse/<cmd>/... takes the inputs cli/<cmd>/... builds and times only
    # the parser the CLI calls for that command
    ab = _ab_lepage()
    for case in ("parse/el/n2m1", "parse/kb/n2m1r2", "parse/alpha/n4m2", "parse/split/n3m2"):
        assert ab.case_name(case) == case
    for case in ("parse/split/n2m1r2", "parse/el/n2m1r3", "parse/decompose/n2m1",
                 "parse/n2m1r1", "parse/cli/el/n2m1"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab.case_name(case)
    side = {name: importlib.import_module(f"jetform.{name}")
            for name in ("forms", "parser", "printers", "randomgen", "varmorph")}
    parser = side["parser"]
    for slot, called in (("parse/kb/n2m1r2", "parse_lagrangian"),
                         ("parse/alpha/n2m1", "parse_form")):
        calls, events = [], []
        real = getattr(parser, called)
        monkeypatch.setattr(parser, called, lambda text, ctx, order, real=real:
                            calls.append((text, ctx, order)) or events.append("parse")
                            or real(text, ctx, order))
        monkeypatch.setattr(ab, "time", types.SimpleNamespace(
            perf_counter=lambda: events.append("clock") or float(len(events))))
        elapsed, shown = ab.run_parse(side, slot)
        cmd, n, m, r, exprs = ab.cli_inputs(side, slot.replace("parse/", "cli/"))
        assert [text for text, _, _ in calls] == exprs and len(exprs) == len(ab.SEEDS)
        assert {(ctx.n, ctx.m, ctx.r, order) for _, ctx, order in calls} \
            == {(int(n), int(m), int(r), int(r))}
        assert events == ["clock", *["parse"] * len(exprs), "clock"] and elapsed == 5.0
        assert len(shown) == len(exprs) and all(shown)
        monkeypatch.undo()


def test_ab_lepage_tower_case_times_the_closed_tower_alone(monkeypatch):
    # tower/nNmMr1 times krupka_betounes_first, tower/nNmMr2[/variant]
    # kb_second_order in that variant, plain by default; the case prints
    # the closed form, and nothing else runs on the clock
    ab = _ab_lepage()
    for case in ("tower/n4m2r1", "tower/n4m2r2", "tower/n3m2r2/plain",
                 "tower/n2m2r2/generalized"):
        assert ab.case_name(case) == case
    for case in ("tower/n4m2r1/plain", "tower/n4m2r3", "tower/n4m2", "tower/n4m2r2/other",
                 "tower/lepage-check/n2m1r1"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab.case_name(case)
    side = {name: importlib.import_module(f"jetform.{name}")
            for name in ("forms", "lepage", "printers")}
    side["modules"] = {}
    lepage = side["lepage"]
    first, second = lepage.krupka_betounes_first, lepage.kb_second_order
    for slot, want in (("tower/n2m1r1", ("first", None)), ("tower/n2m1r2", ("second", "plain")),
                       ("tower/n2m1r2/generalized", ("second", "generalized"))):
        events = []
        monkeypatch.setattr(lepage, "krupka_betounes_first",
                            lambda lam: events.append(("first", None)) or first(lam))
        monkeypatch.setattr(lepage, "kb_second_order",
                            lambda lam, variant: events.append(("second", variant))
                            or second(lam, variant))
        monkeypatch.setattr(ab, "time", types.SimpleNamespace(
            perf_counter=lambda: events.append("clock") or float(len(events))))
        elapsed, out = ab.run_case(side, slot, "Ltower")
        assert events == ["clock", want, "clock"] and elapsed == 2.0
        lam = lepage.generic_lagrangian(side["forms"].Context(n=2, m=1), int(slot[11]),
                                        name="Ltower")
        closed = first(lam) if want[0] == "first" else second(lam, want[1])
        assert out == [side["printers"].form_text(closed)]
        monkeypatch.undo()
