#!/usr/bin/env python3
"""Time two jetform source trees against each other in one process.

Run:  python scripts/ab_lepage.py A_SRC B_SRC [--cases n3m2r2 lepage-check/n3m2r2 alpha/n4m2
                                      verify/prop-da/n3m2 cli/el/n2m1 cli/split/n3m2
                                      parse/alpha/n4m2 tower/n4m2r2/generalized] [--reps 12]

A_SRC and B_SRC are ``src`` directories (a checkout of the parent commit
and the working tree, say).  Both are imported into this interpreter under
the package name ``jetform``, one after the other, and each keeps its own
modules; each run installs its side's modules in ``sys.modules`` first, so
an import made at call time inside the package reaches the tree that is
running, whose covector table its forms were built with.  A case ``nNmMrR`` is the lepage-generic benchmark case: the
closed Krupka-Betounes equivalent, the Rossi recurrence and the
Euler-Lagrange form of a generic opaque Lagrangian at (n, m, order), for
any N, M >= 1 and R in {1, 2}; the default cases are the benchmark's grid,
which leaves out n4m2r2.  A case ``lepage-check/nNmMrR`` times
``lepage_check`` on the closed equivalent of the same generic Lagrangian,
the benchmark's deep check; the closed form is built before the clock
starts.  A case ``tower/nNmMrR[/plain|generalized]`` times the closed
tower alone on the same generic Lagrangian: ``krupka_betounes_first`` at
R = 1, ``kb_second_order`` in the variant named (plain by default) at
R = 2.  A case ``alpha/nNmM`` times ``alpha_discrepancy``, both
splittings of a morphism, and the contact forms of alpha and Dalpha, where their
coefficients are divided, on a generic opaque and a seeded random
polynomial morphism of codegree 1 and rank 2.  A case
``verify/<identity>/nNmM`` times
``jetform verify --identity <identity> -n N -m M`` through ``cli.main``,
for seeds 0-3.  A case ``cli/<cmd>/nNmM`` times the short request
``jetform <cmd> -n N -m M -r 1 --format json -- <expr>`` through
``cli.main`` for seeds 0-3: parse, compute, print.  For ``el``, ``pc``
and ``kb``, ``<expr>`` is the seeded random first-order density of
``randomgen.rand_density``, and ``cli/<el|pc|kb>/nNmMrR``, R in {1, 2},
takes an order-R density and ``-r R`` (``kb`` at order 2 runs the plain
variant, the one cross-checked against the recurrence); for ``split``,
``splitlike`` and ``alpha`` it is the contact form of the seeded random
morphism of ``randomgen.rand_morphism`` of rank 2 and codegree 1
(codegree 0 at N = 1).  A case ``parse/<cmd>/nNmM[rR]`` times the parser
alone on the four inputs its ``cli/<cmd>/nNmM[rR]`` case builds:
``parse_lagrangian`` for ``el``, ``pc`` and ``kb``, ``parse_form`` for the
morphism commands, with the cyclic garbage collector paused, as a CLI
call pauses it.  Each repetition runs every case on both sides back to back, A
first on even repetitions and B first on odd ones; the two runs of a pair
share a density name that no earlier pair used, so every run starts cold.
The host's speed drifts over minutes, so only runs made this close
together tell a gain of a few percent; separate-process timings do not.

Per case it prints the median seconds of A and B, the ratio of the
medians (B/A, below 1 when B is faster), the median of the per-pair ratios
and in how many repetitions B was faster.  A pair's two runs share the
host's speed of the moment, so the median of their ratios drifts less
than the ratio of the medians; the total line takes it over the per-pair
sums of all cases.  The first repetition also checks that both sides print
the same forms (for a tower case, its one closed form), or for a verify or
cli case the same stdout and exit codes, or for a parse case the same
parsed values, or for a lepage-check case the same ``ok`` (the one field
of the report that every tree has); a difference exits 1.
"""

import argparse
import contextlib
import gc
import importlib
import io
import random
import re
import statistics
import sys
import time
from itertools import count

GRID = [f"n{n}m{m}r{r}" for n in (2, 3, 4) for m in (1, 2) for r in (1, 2)
        if (n, m, r) != (4, 2, 2)]
LEPAGE = re.compile(r"n([1-9][0-9]*)m([1-9][0-9]*)r([12])")
CHECK = re.compile(r"lepage-check/(n[1-9][0-9]*m[1-9][0-9]*r[12])")
TOWER = re.compile(r"tower/n[1-9][0-9]*m[1-9][0-9]*r(?:1|2(?:/(plain|generalized))?)")
ALPHA = [f"alpha/n{n}m{m}" for n in (2, 3, 4) for m in (1, 2)]
VERIFY = re.compile(r"verify/([a-z0-9-]+)/n([1-9])m([1-9])")
CLI = re.compile(r"(cli|parse)/(el|pc|kb|split|splitlike|alpha)/n([1-9])m([1-9])(?:r([12]))?")
MORPHISM_COMMANDS = ("split", "splitlike", "alpha")
SEEDS = range(4)


def case_name(text: str) -> str:
    cli = CLI.fullmatch(text)
    if cli and not (cli[2] in MORPHISM_COMMANDS and cli[5]):
        return text
    if any(p.fullmatch(text) for p in (LEPAGE, CHECK, TOWER, VERIFY)) or text in ALPHA:
        return text
    raise argparse.ArgumentTypeError(
        f"{text!r} is none of [lepage-check/]nNmMr1, [lepage-check/]nNmMr2 (N, M >= 1), "
        "tower/nNmMr1, tower/nNmMr2[/plain|/generalized], "
        f"{', '.join(ALPHA)}, "
        "verify/<identity>/nNmM, <cli|parse>/<el|pc|kb>/nNmM[r1|r2] "
        "or <cli|parse>/<split|splitlike|alpha>/nNmM")


def _package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "jetform" or k.startswith("jetform.")}


def load(src: str):
    """Import the jetform package found in ``src``, apart from any other.

    The side maps each module name the cases use to its module, and
    ``"modules"`` to every ``sys.modules`` entry of the package it loaded.
    """
    for name in _package_modules():
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        mods = {name: importlib.import_module(f"jetform.{name}")
                for name in ("cli", "forms", "lepage", "parser", "printers", "randomgen",
                             "varmorph", "verify")}
    finally:
        sys.path.remove(src)
    mods["modules"] = _package_modules()
    return mods


def run_alpha(side, slot: str, name: str):
    randomgen, varmorph = side["randomgen"], side["varmorph"]
    ctx = side["forms"].Context(n=int(slot[7]), m=int(slot[9]))
    morphisms = [randomgen.generic_morphism(ctx, 1, 2, name=name),
                 randomgen.rand_morphism(random.Random(slot), ctx, 1, 2)]
    gc.collect()
    t0 = time.perf_counter()
    forms = [varmorph.to_contact_form(W) for V in morphisms
             for W in varmorph.alpha_discrepancy(V)]
    elapsed = time.perf_counter() - t0
    return elapsed, [side["printers"].form_text(f) for f in forms]


def run_main(side, argvs):
    """Seconds for ``cli.main`` over ``argvs``, and each call's (exit code, stdout)."""
    outs = []
    gc.collect()
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = side["cli"].main(argv)
        outs.append((code, buf.getvalue()))
    return time.perf_counter() - t0, outs


def run_verify(side, slot: str):
    identity, n, m = VERIFY.fullmatch(slot).groups()
    return run_main(side, [["verify", "--identity", identity, "--seed", str(seed),
                            "-n", n, "-m", m] for seed in SEEDS])


def cli_inputs(side, slot: str):
    """(command, n, m, r, the expression of each seed) of a cli or parse case."""
    _, cmd, n, m, r = CLI.fullmatch(slot).groups(default="1")
    ctx = side["forms"].Context(n=int(n), m=int(m))
    printers, randomgen = side["printers"], side["randomgen"]
    if cmd in MORPHISM_COMMANDS:
        s = min(1, ctx.n - 1)
        exprs = [printers.form_text(side["varmorph"].to_contact_form(
            randomgen.rand_morphism(random.Random(seed), ctx, s, 2))) for seed in SEEDS]
    else:
        exprs = [printers.scalar_text(randomgen.rand_density(random.Random(seed), ctx, int(r)))
                 for seed in SEEDS]
    return cmd, n, m, r, exprs


def run_cli(side, slot: str):
    cmd, n, m, r, exprs = cli_inputs(side, slot)
    return run_main(side, [[cmd, "-n", n, "-m", m, "-r", r, "--format", "json", "--", expr]
                           for expr in exprs])


def run_parse(side, slot: str):
    """Seconds to parse the inputs of the slot's cli case, as the CLI
    parses them, and the printed values."""
    cmd, n, m, r, exprs = cli_inputs(side, slot)
    parser, printers = side["parser"], side["printers"]
    ctx = side["forms"].Context(n=int(n), m=int(m), r=int(r))
    if cmd in MORPHISM_COMMANDS:
        parse, show = parser.parse_form, printers.form_text
    else:
        parse, show = parser.parse_lagrangian, lambda lam: printers.scalar_text(lam.density)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        values = [parse(expr, ctx, int(r)) for expr in exprs]
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, [show(value) for value in values]


def run_case(side, slot: str, name: str):
    """(seconds, what the case printed) for one run of a case, made with
    the side's modules installed in ``sys.modules``."""
    sys.modules.update(side["modules"])
    if slot.startswith("alpha/"):
        return run_alpha(side, slot, name)
    if slot.startswith("verify/"):
        return run_verify(side, slot)
    if slot.startswith("cli/"):
        return run_cli(side, slot)
    if slot.startswith("parse/"):
        return run_parse(side, slot)
    forms, lepage = side["forms"], side["lepage"]
    check, tower = CHECK.fullmatch(slot), TOWER.fullmatch(slot)
    n, m, r = map(int, LEPAGE.match(slot.split("/")[1] if check or tower else slot).groups())
    lam = lepage.generic_lagrangian(forms.Context(n=n, m=m), r, name=name)
    if tower:
        gc.collect()
        t0 = time.perf_counter()
        if r == 1:
            closed = lepage.krupka_betounes_first(lam)
        else:
            closed = lepage.kb_second_order(lam, tower[1] or "plain")
        return time.perf_counter() - t0, [side["printers"].form_text(closed)]
    if check:
        closed = _closed(lepage, lam)
        gc.collect()
        t0 = time.perf_counter()
        ok = lepage.lepage_check(closed, lam).ok
        return time.perf_counter() - t0, [ok]
    gc.collect()
    t0 = time.perf_counter()
    out = (_closed(lepage, lam), lepage.rossi_recurrence(lam).terminal,
           lepage.euler_lagrange(lam))
    elapsed = time.perf_counter() - t0
    return elapsed, [side["printers"].form_text(f) for f in out]


def _closed(lepage, lam):
    """The closed Krupka-Betounes equivalent the benchmark checks: the
    first-order one, or the plain second-order variant."""
    if lam.order == 1:
        return lepage.krupka_betounes_first(lam)
    return lepage.kb_second_order(lam, "plain")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_src")
    ap.add_argument("b_src")
    ap.add_argument("--cases", nargs="+", default=GRID, type=case_name)
    ap.add_argument("--reps", type=int, default=12)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    sides = [load(args.a_src), load(args.b_src)]
    for slot in args.cases:
        match = VERIFY.fullmatch(slot)
        if match and not all(match[1] in side["verify"].CHECKS for side in sides):
            ap.error(f"{slot}: no identity {match[1]!r} in both trees")
    names = count()
    times = {slot: ([], []) for slot in args.cases}
    for rep in range(args.reps):
        for slot in args.cases:
            # the two sides keep separate atom tables, so one density name
            # serves both; a new name per pair keeps every run cold
            name = f"L{next(names)}"
            outs = [None, None]
            for s in ((0, 1) if rep % 2 == 0 else (1, 0)):
                elapsed, outs[s] = run_case(sides[s], slot, name)
                times[slot][s].append(elapsed)
            if rep == 0 and outs[0] != outs[1]:
                print(f"{slot}: the two trees print different output", file=sys.stderr)
                raise SystemExit(1)

    width = max(8, *map(len, args.cases))
    print(f"{'case':{width}s} {'a_median_s':>11s} {'b_median_s':>11s} {'b/a':>6s} "
          f"{'pair_b/a':>8s} {'b_wins':>7s}")
    total_a = total_b = 0.0
    for slot in args.cases:
        a, b = times[slot]
        ma, mb = statistics.median(a), statistics.median(b)
        total_a += ma
        total_b += mb
        pair = statistics.median(y / x for x, y in zip(a, b))
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{slot:{width}s} {ma:11.4f} {mb:11.4f} {mb / ma:6.3f} {pair:8.3f} {wins:>3d}/{len(a)}")
    a_sums, b_sums = ([sum(times[slot][s][rep] for slot in args.cases) for rep in range(args.reps)]
                      for s in (0, 1))
    pair = statistics.median(y / x for x, y in zip(a_sums, b_sums))
    print(f"{'total':{width}s} {total_a:11.4f} {total_b:11.4f} {total_b / total_a:6.3f} {pair:8.3f}")


if __name__ == "__main__":
    main()
