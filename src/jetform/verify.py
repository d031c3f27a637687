"""Named, seeded identity checks backing the CLI verify subcommand.

Each check returns (ok, detail); when a check fails, detail names each
failing instance with the smallest term of its difference, and when it
passes, a short summary.  ``interior_euler._mismatch``, the one comparison
of two forms in the library, decides every item, so kb-first, kb-second and
rossi-rho2 compare formal chain members (``lepage._chain``) with formal
closed forms, and kb-first checks the formal tower's Lepage pairs
(``lepage._lepage_pairs``) formally too.  The same routines are exercised
with fixed seeds by the acceptance suite.

The identities that compare pairings of morphisms (prop-volume, prop-r1,
prop-da) run the splittings on the morphism as it is stored, on integers,
and write each difference of pairings into one integer running sum over
the lcm of the scales (``varmorph._pairing_sum``).  The pairing is linear,
so the morphisms of a difference are summed before they are paired: a
difference that cancels takes no product and no d_J Xi.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import randomgen, symexpr, varmorph
from .forms import (Context, Form, _add_into, _summed, contract_prolonged, d_H,
                    ds_block, ds_parts, omega, p_k, total_derivative_form_multi, wedge)
from .interior_euler import _mismatch, _residual, ibp_expand, interior_euler, residual
from .lepage import (Lagrangian, _chain, _lepage_pairs, _momentum, generic_lagrangian,
                     kb_second_order, krupka_betounes_first)
from .multiindex import sort_with_sign
from .symexpr import _d_rule, _derive_into, _merge
from .varmorph import _pairing_sum


def _report(items) -> tuple:
    """Decide each (label, got, want), or (label, difference) against zero."""
    lines = [f"{label}: {failure}" for label, got, *want in items
             if (failure := _mismatch(got, want[0] if want else Form.zero(got.ctx)))]
    if not lines:
        return True, f"{len(items)} instance(s) verified"
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
        E = res.volume
        rho = varmorph.to_contact_form(V)
        boundary = d_H(res.boundary.evaluate(xi))
        diffs.append((f"trial {t} volume", _pairing_sum(
            xi, [(E, 1), (contract_prolonged(interior_euler(rho, 1), xi), -1)])))
        diffs.append((f"trial {t} boundary", _pairing_sum(
            xi, [(boundary, 1), (contract_prolonged(d_H(residual(rho, 1)), xi), -1)])))
        diffs.append((f"trial {t} total",
                      _pairing_sum(xi, [(V, 1), (E, -1), (boundary, -1)])))
    return _report(diffs)


def _gathered_chi(ctx: Context, chi: dict, block, i: int, I_sorted) -> Form:
    """chi^{[block i] I}: antisymmetrized over block + (i,), normalized.

    ``chi`` maps (block strictly increasing, I sorted) to the k-contact
    k-forms with omega^sigma ^ xi^I_sigma = sum of chi^{block, I} ^ ds_block.
    Each index of block + (i,) in turn joins I, signed (-1)^(s-t) for the
    s-t moves that take position t to the end, and the sum is divided by
    s+1.  The rest of the block is looked up sorted, times the sign that
    sorts it (``sort_with_sign``), so this equals the sum over all (s+1)!
    orderings divided by (s+1)!.
    """
    idxs = tuple(block) + (i,)
    s = len(block)
    acc: dict = {}
    for t, a in enumerate(idxs):
        rest, sign = sort_with_sign(idxs[:t] + idxs[t + 1:])
        part = chi.get((rest, tuple(sorted((a,) + I_sorted)))) if sign else None
        if part is not None:
            _add_into(acc, part, -sign if (s - t) % 2 else sign)
    return _summed(ctx, acc, s + 1)


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
        sums: dict = {}  # (block, I) -> chi^{block, I}, read off the xi family
        for (sigma, I), x in fam.xi.items():
            if I:
                for block, part in ds_parts(wedge(omega(ctx, sigma), x)).items():
                    _add_into(sums.setdefault((block, I), {}), part)
        chi = {key: _summed(ctx, v) for key, v in sums.items()}
        acc: dict = {}  # the left side minus the right
        _add_into(acc, d_H(_residual(fam)), -1)
        for block in itertools.combinations(range(1, nn + 1), s):
            for lm in range(1, fam.r + 1):
                for M in itertools.product(range(1, nn + 1), repeat=lm):
                    anti = _gathered_chi(ctx, chi, block, M[0], tuple(sorted(M[1:])))
                    if anti.is_zero():
                        continue
                    _add_into(acc, wedge(total_derivative_form_multi(anti, M),
                                         ds_block(ctx, block)))
        diffs.append((f"trial {t} (n={nn},m={mm},k={k},s={s},r={r})", _summed(ctx, acc)))
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
        like, canon = varmorph.split_like(V), varmorph.split_canonical_codegree_s(V)
        xi = varmorph.formal_field(ctx)
        diffs.append((f"trial {t} volume",
                      _pairing_sum(xi, [(like.volume, 1), (canon.volume, -1)])))
        diffs.append((f"trial {t} boundary",
                      _pairing_sum(xi, [(like.boundary, 1), (canon.boundary, -1)])))
    return _report(diffs)


def _alpha_display(V: varmorph.VariationalMorphism) -> varmorph.VariationalMorphism:
    """The displayed alpha of a rank-2, codegree-1 morphism, term by term.

    -1/6 d_a A^{[ij]a} at rank 0 and -1/6 A^{[ij]a} at rank 1, for i < j,
    with A^{[ij]a} = 1/2 (A^{i(ja)} - A^{j(ia)}) read off ``V.acc``.  Over
    the scale 12 V.scale, which folds in the 1/2 and the -1/6, the bucket
    at rank 1 is that of A^{j(ia)} minus that of A^{i(ja)}, and the bucket
    at rank 0 is the sum over a of its d_a.
    """
    ctx = V.ctx
    acc = {}
    for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
        for sigma in range(1, ctx.m + 1):
            rank0: dict = {}  # the sum over a of d_a of the rank-1 buckets
            for a in range(1, ctx.n + 1):
                t: dict = {}
                _merge(t, V.acc.get(((j,), sigma, (i, a)), {}))
                _merge(t, V.acc.get(((i,), sigma, (j, a)), {}), -1)
                acc[((i, j), sigma, (a,))] = t
                _derive_into(rank0, t, _d_rule(a))
            acc[((i, j), sigma, ())] = rank0
    return varmorph.VariationalMorphism(ctx, 2, 12 * V.scale, acc)


def check_prop_da(seed: int, n: int = 2, m: int = 1) -> tuple:
    """alpha discrepancy: T' = T + alpha and E' = E - D(alpha), rank 2."""
    ctx = Context(n=max(n, 2), m=m)
    diffs = []
    for label, V in [("generic", randomgen.generic_morphism(ctx, 1, 2)),
                     ("random", randomgen.rand_morphism(random.Random(seed), ctx, 1, 2))]:
        like, canon = varmorph.split_like(V), varmorph.split_canonical_codegree_s(V)
        alpha = like.boundary - canon.boundary
        dalpha = varmorph.divergence(alpha)
        xi = varmorph.formal_field(ctx)
        diffs.append((f"{label} boundary", _pairing_sum(
            xi, [(like.boundary, 1), (canon.boundary, -1), (alpha, -1)])))
        diffs.append((f"{label} volume", _pairing_sum(
            xi, [(like.volume, 1), (canon.volume, -1), (dalpha, 1)])))
        diffs.append((f"{label} alpha display",
                      _pairing_sum(xi, [(alpha, 1), (_alpha_display(V), -1)])))
    return _report(diffs)


def check_kb_first(seed: int, n: int = 2, m: int = 2) -> tuple:
    """Recurrence terminal form equals the first-order closed equivalent."""
    rng = random.Random(seed)
    ctx = Context(n=n, m=m)
    lam = Lagrangian(ctx, 1, randomgen.rand_density(rng, ctx, 1))
    with symexpr._formal_scope():
        tower = krupka_betounes_first(lam)
        return _report([("terminal", _chain(lam)[-1], tower), *_lepage_pairs(tower, lam)])


def check_kb_second(seed: int, n: int = 2, m: int = 2) -> tuple:
    """Second-order chains against both closed variants."""
    rng = random.Random(seed)
    ctx = Context(n=n, m=m)
    lam = Lagrangian(ctx, 2, randomgen.rand_density(rng, ctx, 2))
    with symexpr._formal_scope():
        items = [("plain terminal", _chain(lam)[-1], kb_second_order(lam, "plain"))]
    d1 = randomgen.rand_density(rng, ctx, 1)
    lam2 = Lagrangian(ctx, 2, d1)
    lam1 = Lagrangian(ctx, 1, d1)
    items.append(("generalized reduction", kb_second_order(lam2, "generalized"),
                  krupka_betounes_first(lam1)))
    return _report(items)


def check_rossi_rho2(seed: int, n: int = 2, m: int = 1) -> tuple:
    """The second chain member matches the displayed second-order form."""
    n = max(n, 2)  # the chain has a second member from n = 2 on
    ctx = Context(n=n, m=m)
    fibers, bases = range(1, m + 1), range(1, n + 1)
    items = []
    rng = random.Random(seed)
    for label, lam in [("generic", generic_lagrangian(ctx, 2)),
                       ("random", Lagrangian(ctx, 2, randomgen.rand_density(rng, ctx, 2)))]:
        with symexpr._formal_scope():  # the displayed form is built formally too
            rho2 = _chain(lam)[1]
            # f^J_sigma depends on the sorted J only: each is built once,
            # all from one gradient of the density
            grad = symexpr.gradient(lam.density)
            f = {(sig, J): _momentum(lam, grad, sig, J)
                 for sig in fibers for J in symexpr.jet_keys(n, 2) if J}
            acc: dict = {}  # the displayed form
            _add_into(acc, lam.form())
            for sig, i in itertools.product(fibers, bases):
                ds_i = ds_block(ctx, (i,))
                _add_into(acc, wedge(omega(ctx, sig), ds_i).scale(f[sig, (i,)]))
                for j in bases:
                    _add_into(acc, wedge(omega(ctx, sig, j), ds_i)
                              .scale(f[sig, (min(i, j), max(i, j))]))
            for s1, i1, s2, i2, j2 in itertools.product(fibers, bases, fibers, bases, bases):
                c = symexpr.partial(f[s2, (min(i2, j2), max(i2, j2))], ('y', s1, (i1,)))
                term = wedge(omega(ctx, s1), wedge(omega(ctx, s2, j2), ds_block(ctx, (i1, i2))))
                _add_into(acc, term.scale(c * Fraction(1, 2)))
        items.append((label, rho2, _summed(ctx, acc)))
    return _report(items)


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


@symexpr._memo_scope()
def run_identity(name: str, seed: int, n: int | None = None, m: int | None = None) -> tuple:
    fn = CHECKS[name]
    kwargs = {}
    if n is not None:
        kwargs['n'] = n
    if m is not None:
        kwargs['m'] = m
    return fn(seed, **kwargs)
