"""Named, seeded identity checks backing the CLI verify subcommand.

Each check returns (ok, detail); when a check fails, detail names each
failing instance with the smallest term of its difference, and when it
passes, a short summary.  The same routines are exercised with fixed seeds
by the acceptance suite.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import randomgen, symexpr, varmorph
from .forms import (Context, Form, contract_prolonged, d_H, ds_block, omega,
                    p_k, total_derivative_form_multi, wedge)
from .interior_euler import (_residual, _smallest_difference, ibp_expand,
                             interior_euler, residual)
from .lepage import (Lagrangian, generic_lagrangian, kb_second_order,
                     krupka_betounes_first, lepage_check, rossi_recurrence)


def _report(diffs) -> tuple:
    bad = [(label, d) for label, d in diffs if not d.is_zero()]
    if not bad:
        return True, f"{len(diffs)} instance(s) verified"
    lines = [f"{label}: {_smallest_difference(d, Form.zero(d.ctx))}"
             for label, d in bad]
    return False, "nonzero difference\n" + "\n".join(lines)


def check_eq32(seed: int, n: int = 2, m: int = 2, trials: int = 4) -> tuple:
    """p_k rho = I(rho) + p_k d p_k R(rho) on random top forms, k in {1,2}."""
    rng = random.Random(seed)
    diffs = []
    for t in range(trials):
        nn = rng.choice(range(1, n + 1))
        mm = rng.choice(range(1, m + 1))
        k = rng.choice([1, 2])
        r = rng.choice([1, 2])
        ctx = Context(n=nn, m=mm)
        rho = randomgen.rand_form(rng, ctx, nn, k, r)
        I = interior_euler(rho, k)
        R = residual(rho, k)
        lhs = p_k(rho, k)
        rhs = I + d_H(p_k(R, k))  # = p_k d p_k R: d_H keeps the contact degree
        diffs.append((f"trial {t} (n={nn},m={mm},k={k},r={r})", lhs - rhs))
    return _report(diffs)


def check_prop_volume(seed: int, n: int = 2, m: int = 2) -> tuple:
    """Codegree-0 split against the interior Euler and residual operators."""
    rng = random.Random(seed)
    diffs = []
    for t in range(2):
        nn = rng.choice(range(1, n + 1))
        mm = rng.choice(range(1, m + 1))
        r = rng.choice([1, 2])
        ctx = Context(n=nn, m=mm)
        V = randomgen.rand_morphism(rng, ctx, 0, r)
        xi = varmorph.vertical_field(ctx)
        res = varmorph.split_canonical_codegree_s(V)
        rho = varmorph.to_contact_form(V)
        diffs.append((f"trial {t} volume", res.volume.evaluate(xi)
                      - contract_prolonged(interior_euler(rho, 1), xi)))
        diffs.append((f"trial {t} boundary", d_H(res.boundary.evaluate(xi))
                      - contract_prolonged(d_H(residual(rho, 1)), xi)))
        diffs.append((f"trial {t} total", V.evaluate(xi)
                      - res.volume.evaluate(xi) - d_H(res.boundary.evaluate(xi))))
    return _report(diffs)


def _gathered_chi(fam, block, i: int, I_sorted) -> Form:
    """chi^{[block i] I}: antisymmetrized over block + (i,), normalized.

    Each index of block + (i,) in turn joins I, signed (-1)^(s-t) for the
    s-t moves that take position t to the end, and the sum is divided by
    s+1.  ``chi_at`` is signed in its block, so this equals the sum over
    all (s+1)! orderings divided by (s+1)!.
    """
    idxs = tuple(block) + (i,)
    s = len(block)
    out = Form.zero(fam.ctx)
    for t, a in enumerate(idxs):
        val = fam.chi_at(idxs[:t] + idxs[t + 1:], tuple(sorted((a,) + I_sorted)))
        out = out + val.scale(Fraction((-1) ** (s - t), s + 1))
    return out


def check_prop_div(seed: int, n: int = 3, m: int = 2) -> tuple:
    """The lower-degree residual produces the stated horizontal differential."""
    rng = random.Random(seed)
    diffs = []
    for t in range(3):
        nn = rng.choice(range(2, max(n, 2) + 1))
        mm = rng.choice(range(1, m + 1))
        k = rng.choice([1, 2])
        r = rng.choice([1, 2])
        s = rng.choice([1, 2])
        if s > nn:
            continue
        ctx = Context(n=nn, m=mm)
        rho = randomgen.rand_form(rng, ctx, nn - s, k, r)
        if p_k(rho, k).is_zero():
            continue
        fam = ibp_expand(rho, k)
        lhs = Form.zero(ctx)
        for block in itertools.combinations(range(1, nn + 1), s):
            for lm in range(1, fam.r + 1):
                for M in itertools.product(range(1, nn + 1), repeat=lm):
                    anti = _gathered_chi(fam, block, M[0], tuple(sorted(M[1:])))
                    if anti.is_zero():
                        continue
                    lhs = lhs + wedge(total_derivative_form_multi(anti, M),
                                      ds_block(ctx, block))
        rhs = d_H(_residual(fam))
        diffs.append((f"trial {t} (n={nn},m={mm},k={k},s={s},r={r})", lhs - rhs))
    return _report(diffs)


def check_prop_r1(seed: int, n: int = 3, m: int = 2) -> tuple:
    """Rank-1 split-like and canonical splittings coincide."""
    rng = random.Random(seed)
    diffs = []
    for t in range(2):
        nn = rng.choice(range(2, max(n, 2) + 1))
        mm = rng.choice(range(1, m + 1))
        s = rng.choice(range(1, nn))
        ctx = Context(n=nn, m=mm)
        V = randomgen.rand_morphism(rng, ctx, s, 1)
        like = varmorph.split_like(V)
        canon = varmorph.split_canonical_codegree_s(V)
        xi = varmorph.formal_field(ctx)
        diffs.append((f"trial {t} volume",
                      like.volume.evaluate(xi) - canon.volume.evaluate(xi)))
        diffs.append((f"trial {t} boundary",
                      like.boundary.evaluate(xi) - canon.boundary.evaluate(xi)))
    return _report(diffs)


def _alpha_display(V: varmorph.VariationalMorphism) -> varmorph.VariationalMorphism:
    """The displayed alpha of a rank-2, codegree-1 morphism, term by term.

    -1/6 d_a A^{[ij]a} at rank 0 and -1/6 A^{[ij]a} at rank 1, for i < j,
    with A^{[ij]a} = 1/2 (A^{i(ja)} - A^{j(ia)}) read off ``V.value``.
    """
    ctx = V.ctx
    adisp = varmorph.VariationalMorphism(ctx, 2)
    for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
        for sigma in range(1, ctx.m + 1):
            anti = {a: (V.value((i,), sigma, (j, a)) - V.value((j,), sigma, (i, a)))
                    * Fraction(1, 2) for a in range(1, ctx.n + 1)}
            acc = symexpr.Scalar.zero()
            for a, val in anti.items():
                acc = acc + symexpr.total_derivative(val, a)
                adisp.set((i, j), sigma, (a,), val * Fraction(-1, 6))
            adisp.set((i, j), sigma, (), acc * Fraction(-1, 6))
    return adisp


def check_prop_da(seed: int, n: int = 2, m: int = 1) -> tuple:
    """alpha discrepancy: T' = T + alpha and E' = E - D(alpha), rank 2."""
    ctx = Context(n=max(n, 2), m=m)
    diffs = []
    for label, V in [("generic", randomgen.generic_morphism(ctx, 1, 2)),
                     ("random", randomgen.rand_morphism(random.Random(seed), ctx, 1, 2))]:
        like = varmorph.split_like(V)
        canon = varmorph.split_canonical_codegree_s(V)
        alpha, dalpha = varmorph._discrepancy(like, canon)
        xi = varmorph.formal_field(ctx)
        diffs.append((f"{label} boundary", like.boundary.evaluate(xi)
                      - canon.boundary.evaluate(xi) - alpha.evaluate(xi)))
        diffs.append((f"{label} volume", like.volume.evaluate(xi)
                      - canon.volume.evaluate(xi) + dalpha.evaluate(xi)))
        diffs.append((f"{label} alpha display",
                      alpha.evaluate(xi) - _alpha_display(V).evaluate(xi)))
    return _report(diffs)


def check_kb_first(seed: int, n: int = 2, m: int = 2) -> tuple:
    """Recurrence terminal form equals the first-order closed equivalent."""
    rng = random.Random(seed)
    ctx = Context(n=n, m=m)
    lam = Lagrangian(ctx, 1, randomgen.rand_density(rng, ctx, 1))
    chain = rossi_recurrence(lam)
    kb = krupka_betounes_first(lam)
    diffs = [("terminal", chain.terminal - kb)]
    rep = lepage_check(kb, lam)
    diffs.append(("lepage horizontal", rep.horizontal_diff))
    diffs.append(("lepage source", rep.source_diff))
    return _report(diffs)


def check_kb_second(seed: int, n: int = 2, m: int = 2) -> tuple:
    """Second-order chains against both closed variants."""
    rng = random.Random(seed)
    ctx = Context(n=n, m=m)
    lam = Lagrangian(ctx, 2, randomgen.rand_density(rng, ctx, 2))
    diffs = [("plain terminal",
              rossi_recurrence(lam).terminal - kb_second_order(lam, "plain"))]
    d1 = randomgen.rand_density(rng, ctx, 1)
    lam2 = Lagrangian(ctx, 2, d1)
    lam1 = Lagrangian(ctx, 1, d1)
    diffs.append(("generalized reduction",
                  kb_second_order(lam2, "generalized") - krupka_betounes_first(lam1)))
    return _report(diffs)


def check_rossi_rho2(seed: int, n: int = 2, m: int = 1) -> tuple:
    """The second chain member matches the displayed second-order form."""
    n = max(n, 2)  # the chain has a second member from n = 2 on
    ctx = Context(n=n, m=m)
    diffs = []
    rng = random.Random(seed)
    for label, lam in [("generic", generic_lagrangian(ctx, 2)),
                       ("random", Lagrangian(ctx, 2, randomgen.rand_density(rng, ctx, 2)))]:
        chain = rossi_recurrence(lam)
        rho2 = chain.forms[1]
        expect = lam.form()
        for sig in range(1, m + 1):
            for i in range(1, n + 1):
                expect = expect + wedge(omega(ctx, sig),
                                        ds_block(ctx, (i,))).scale(lam.momentum(sig, (i,)))
                for j in range(1, n + 1):
                    expect = expect + wedge(omega(ctx, sig, j),
                                            ds_block(ctx, (i,))).scale(lam.momentum(sig, (i, j)))
        for s1 in range(1, m + 1):
            for i1 in range(1, n + 1):
                for s2 in range(1, m + 1):
                    for i2 in range(1, n + 1):
                        for j2 in range(1, n + 1):
                            c = symexpr.partial(lam.momentum(s2, (i2, j2)), ('y', s1, (i1,)))
                            term = wedge(omega(ctx, s1),
                                         wedge(omega(ctx, s2, j2), ds_block(ctx, (i1, i2))))
                            expect = expect + term.scale(c * Fraction(1, 2))
        diffs.append((label, rho2 - expect))
    return _report(diffs)


CHECKS = {
    "eq32": check_eq32,
    "prop-volume": check_prop_volume,
    "prop-div": check_prop_div,
    "prop-r1": check_prop_r1,
    "prop-da": check_prop_da,
    "kb-first": check_kb_first,
    "kb-second": check_kb_second,
    "rossi-rho2": check_rossi_rho2,
}


def run_identity(name: str, seed: int, n: int | None = None, m: int | None = None) -> tuple:
    fn = CHECKS[name]
    kwargs = {}
    if n is not None:
        kwargs['n'] = n
    if m is not None:
        kwargs['m'] = m
    return fn(seed, **kwargs)
