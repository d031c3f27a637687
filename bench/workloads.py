"""The two benchmark workloads: inputs, one case, and its output checks.

Every workload is a fixed list of slots.  A slot is a kind of request
with fixed dimensions; its content comes from one of ``variants`` variant
streams.  Every (slot, variant) input is pinned in ``pinned/`` together
with the digest of its output, so each case of any seed is checked for
byte-stability.  The set-up makes every case, whatever the seed, so that
its cost does not depend on the seed; ``--seed`` orders the cases of a
pass (and names the density of each lepage-generic pass).  The jetform
library receives only the generated inputs.

Each workload object offers:

* ``modules``: what ``import jetform`` means for it (set-up cost);
* ``prepare()``: make every case of the workload, the rest of the set-up;
* ``generate(seed, pass_index)``: the cases of one pass, as ``Case`` tuples;
* ``timing_key(case)``: equal for cases that do the same work;
* ``run(case)``: the timed call; it returns the output or raises;
* ``digest(case, out)``: the text whose sha256 is pinned, or ``None``;
* ``verdict(case, out)``: ``None`` when the output is right, else why not;
* ``deep_check(case, out)``: the costly checks, made once per slot.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import random
from typing import NamedTuple

import oracle


class Case(NamedTuple):
    key: str          # slot/variant, the key of the pinned digests
    slot: str
    payload: object   # what the library receives
    expect: object    # expected exit code or outcome


def _rng(*parts) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random("/".join(str(p) for p in parts))


def _jf(name):
    return importlib.import_module(f"jetform.{name}")


class Pooled:
    """A workload whose every pass runs each (slot, variant) case once."""

    def slot_variants(self, slot):
        return 1 if slot in MALFORMED else self.variants

    def prepare(self):
        self.pool = [self.make(slot, v) for slot in self.slots()
                     for v in range(self.slot_variants(slot))]

    def generate(self, seed, pass_index=0):
        cases = list(self.pool)
        _rng(self.name, seed).shuffle(cases)
        return cases

    def timing_key(self, case):
        return case.key


# -- lepage-generic --------------------------------------------------------------


class LepageGeneric:
    name = "lepage-generic"
    modules = ("jetform", "jetform.lepage")
    # (4, 2, 2) alone takes about 36 s and is left out
    GRID = [(n, m, r) for n in (2, 3, 4) for m in (1, 2) for r in (1, 2)
            if (n, m, r) != (4, 2, 2)]
    largest = "n3m2r2"
    # These two take 4-7 s and set the length of a pass; the nine others
    # take 2 s together and run three times a pass, so that their medians
    # rest on enough runs.
    LONG = ("n3m2r2", "n4m1r2")
    SHORT_RUNS = 3
    # the variant names the opaque density, L0..L15; every run in a pass
    # takes the next name, so no run can reuse results cached by an earlier
    # one (the names come round again after five passes)
    variants = 16
    min_passes = 2

    def slots(self):
        return [f"n{n}m{m}r{r}" for n, m, r in self.GRID]

    def slot_variants(self, slot):
        return self.variants

    def make(self, slot, variant):
        n, m, r = (int(slot[i]) for i in (1, 3, 5))
        forms, lepage = _jf("forms"), _jf("lepage")
        lam = lepage.generic_lagrangian(forms.Context(n=n, m=m), r, name=f"L{variant}")
        return Case(f"{slot}/L{variant}", slot, lam, None)

    def prepare(self):
        self.pool = [[self.make(slot, v) for slot in self.slots()]
                     for v in range(self.variants)]

    def generate(self, seed, pass_index=0):
        rng = _rng(self.name, seed)
        first = rng.randrange(self.variants) + pass_index * self.SHORT_RUNS
        cases = [self.pool[(first + j) % self.variants][i]
                 for i, slot in enumerate(self.slots())
                 for j in range(1 if slot in self.LONG else self.SHORT_RUNS)]
        rng.shuffle(cases)
        return cases

    def timing_key(self, case):
        # the density's name changes from pass to pass, the work does not
        return case.slot

    def run(self, case):
        lepage = _jf("lepage")
        lam = case.payload
        if lam.order == 1:
            closed = lepage.krupka_betounes_first(lam)
        else:
            closed = lepage.kb_second_order(lam, "plain")
        terminal = lepage.rossi_recurrence(lam).terminal
        return closed, terminal, lepage.euler_lagrange(lam)

    def input_text(self, case):
        return _jf("printers").scalar_text(case.payload.density)

    def digest(self, case, out):
        form_json = _jf("printers").form_json
        return "\n".join(form_json(f) for f in out)

    def verdict(self, case, out):
        closed, terminal, _ = out
        if not (terminal - closed).is_zero():
            return "recurrence terminal differs from the closed equivalent"
        return None

    def deep_check(self, case, out):
        rep = _jf("lepage").lepage_check(out[0], case.payload)
        return None if rep.ok else "lepage_check fails on the closed equivalent"


# -- cli-poly ----------------------------------------------------------------------

_FORMATS = ("text", "latex", "json")

# malformed command lines, all of which should exit with status 2; the
# last one raises ZeroDivisionError instead (a known defect, kept on purpose)
MALFORMED = {
    "bad/syntax": ["el", "-n", "2", "-m", "1", "-r", "1", "--", "u_1 +* u_2"],
    "bad/unknown": ["pc", "-n", "2", "-m", "1", "-r", "1", "--", "q_1^2 + u_2"],
    "bad/order": ["kb", "-n", "2", "-m", "1", "-r", "1", "--", "u_11*u_2"],
    "bad/fields": ["el", "-n", "2", "-m", "2", "-r", "1", "--fields", "a", "--", "a_1^2"],
    "bad/divzero": ["el", "-n", "2", "-m", "1", "-r", "1", "--", "1/0"],
}


class CliPoly(Pooled):
    name = "cli-poly"
    modules = ("jetform", "jetform.cli")
    largest = "verify-prop-da/n3m2"
    variants = 2
    verify_seeds = 4       # identity seeds 0..3
    min_passes = 1

    def slots(self):
        out = []
        for n in (1, 2, 3, 4):
            for m in (1, 2):
                kinds = ["el1", "el2", "pc1", "pc2", "kb1"]
                if n <= 3:
                    # kb at order 2 on n = 4 polynomials takes up to 1.7 s:
                    # that size belongs to lepage-generic
                    kinds += ["kb2plain", "kb2generalized"]
                kinds += ["ieuler", "residual0", "split", "decompose"]
                if n >= 2:
                    kinds += ["residuallow", "splitlike", "alpha"]
                out += [f"{kind}/n{n}m{m}" for kind in kinds]
        return out + _verify_slots() + list(MALFORMED)

    def slot_variants(self, slot):
        if slot.startswith("verify-"):
            return self.verify_seeds
        return super().slot_variants(slot)

    def make(self, slot, variant):
        if slot in MALFORMED:
            return Case(slot, slot, MALFORMED[slot], 2)
        randomgen, printers = _jf("randomgen"), _jf("printers")
        Context = _jf("forms").Context
        kind, dims = slot.split("/")
        n, m = int(dims[1]), int(dims[3])
        if kind.startswith("verify-"):
            argv = ["verify", "-n", str(n), "-m", str(m),
                    "--identity", kind[len("verify-"):], "--seed", str(variant)]
            return Case(f"{slot}/s{variant}", slot, argv, 0)
        rng = _rng(self.name, slot, variant)
        ctx = Context(n=n, m=m)
        # a fixed format per slot keeps the pass's output mix seed-independent
        fmt = _FORMATS[sum(map(ord, slot)) % 3]
        flags = ["-n", str(n), "-m", str(m)]
        if kind.startswith(("el", "pc", "kb")):
            r = int(kind[2])
            expr = printers.scalar_text(randomgen.rand_density(rng, ctx, r))
            cmd = kind[:2]
            if kind.startswith("el"):
                fmt = "json"   # the oracle reads the JSON document
            extra = ["--variant", kind[3:]] if kind.startswith("kb2") else []
            argv = [cmd, *flags, "-r", str(r), *extra, "--format", fmt, "--", expr]
            return Case(f"{slot}/v{variant}", slot, argv, 0)
        cmd = kind
        if kind in ("ieuler", "residual0"):
            k, r = rng.choice((1, 2)), rng.choice((1, 2))
            rho = randomgen.rand_form(rng, ctx, n, k, r)
            cmd, extra = kind.rstrip("0"), ["--contact", str(k)]
        elif kind == "residuallow":
            s, r = rng.randint(1, n - 1), rng.choice((1, 2))
            rho = randomgen.rand_form(rng, ctx, n - s, 1, r)
            cmd, extra = "residual", ["--contact", "1", "--codegree", str(s)]
        elif kind in ("split", "splitlike", "alpha"):
            if kind == "alpha":
                s, rank = 1, 2
            else:
                s = rng.randint(0 if kind == "split" else 1, n - 1)
                rank = rng.choice((1, 2)) if s <= 1 else 1
            V = randomgen.rand_morphism(rng, ctx, s, rank)
            rho = _jf("varmorph").to_contact_form(V)
            r, extra = 1, []
        else:
            r = rng.choice((1, 2))
            argv = [kind, *flags, "-r", str(r), "--format", fmt, "--",
                    _dy_text(rng, ctx, r)]
            return Case(f"{slot}/v{variant}", slot, argv, 0)
        argv = [cmd, *flags, "-r", str(r), *extra, "--format", fmt, "--",
                printers.form_text(rho)]
        return Case(f"{slot}/v{variant}", slot, argv, 0)

    def run(self, case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _jf("cli").main(list(case.payload))
        return code, out.getvalue(), err.getvalue()

    def input_text(self, case):
        return "\0".join(case.payload)

    def digest(self, case, out):
        return out[1]

    def expected_output(self, case):
        """The digest text a case should give, for one that raises when pinned."""
        return "" if case.slot in MALFORMED else None

    def verdict(self, case, out):
        code, _, err = out
        if code != case.expect:
            return f"exit code {code}, expected {case.expect}"
        if code == 0 and err:
            return f"stderr on success: {err.strip()[:200]}"
        if code != 0 and not err:
            return "nonzero exit without a message"
        return None

    def deep_check(self, case, out):
        if not case.slot.startswith("el") or out[0] != 0:
            return None
        argv = case.payload
        n, m = int(argv[argv.index("-n") + 1]), int(argv[argv.index("-m") + 1])
        if oracle.euler_lagrange_matches(argv[-1], n, m, out[1]):
            return None
        return "el output disagrees with sympy euler_equations"


def _dy_text(rng, ctx, order):
    """A random form in dy-notation, as the decompose subcommand reads it."""
    randomgen, printers = _jf("randomgen"), _jf("printers")
    fields = [printers.field_name(s) for s in range(1, ctx.m + 1)]
    covs = [f"dx{i}" for i in range(1, ctx.n + 1)]
    for f in fields:
        for J in ("",) + tuple(str(i) for i in range(1, ctx.n + 1)):
            atom = f"{f},{J}" if J else f
            covs.append(f"dy({atom})")
            covs.append(f"w({atom})")
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = printers.scalar_text(randomgen.rand_scalar(rng, ctx, order, terms=1))
        picked = rng.sample(covs, rng.randint(1, 3))
        terms.append(f"({coeff}) * " + " /\\ ".join(picked))
    return " + ".join(terms)


def _verify_slots():
    """Every identity at its own default dimensions and at n=3, m=2.

    rossi-rho2 at n=3, m=2 takes 7 s per seed and repeats the largest
    lepage-generic case, so it is left out."""
    out = []
    for name, fn in sorted(_jf("verify").CHECKS.items()):
        defaults = inspect.signature(fn).parameters
        dims = [(defaults["n"].default, defaults["m"].default)]
        if name != "rossi-rho2":
            dims.append((3, 2))
        out += [f"verify-{name}/n{n}m{m}" for n, m in dict.fromkeys(dims)]
    return out


WORKLOADS = {w.name: w for w in (LepageGeneric(), CliPoly())}
