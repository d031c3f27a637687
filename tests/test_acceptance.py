"""Acceptance criteria, one test per criterion.

Every check is exact: equality of normal forms, tolerance zero.  Each test
prints a single PASS line on success (visible with pytest -s or in the
captured output); a failing assert is the FAIL signal.  Stated runtime
budgets are enforced.
"""

import itertools
import random
import time
from fractions import Fraction

from jetform import symexpr as se
from jetform.cli import main as cli_main
from jetform.forms import (Context, Form, contract_prolonged, d_C, d_H,
                           ds_block, dx, exterior_d, omega, p_k,
                           total_derivative_form, total_derivative_form_multi,
                           volume, wedge)
from jetform.interior_euler import ibp_expand, interior_euler, residual
from jetform.lepage import (Lagrangian, euler_lagrange, generic_lagrangian,
                            kb_second_order, krupka_betounes_first,
                            rossi_recurrence)
from jetform.parser import parse_form
from jetform.printers import form_text
from jetform.randomgen import (generic_morphism, rand_density, rand_form,
                               rand_morphism)
from jetform.symexpr import Scalar
from jetform.varmorph import (alpha_discrepancy, formal_field,
                              split_canonical_codegree_s, split_like,
                              to_contact_form, vertical_field)
from jetform.verify import CHECKS, run_identity
from form_oracles import chi_antisym, chi_table, d_H_walk, wedge_all
from splitting_oracles import antisym_value, is_reduced


def _announce(num, ok, label, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} ({time.time() - t0:5.1f}s) {label}")
    assert ok, f"criterion {num}: {label}"


def _eq32_corpus(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, m = rng.choice([1, 2]), rng.choice([1, 2])
        k, r = rng.choice([1, 2]), rng.choice([1, 2])
        ctx = Context(n=n, m=m)
        rho = rand_form(rng, ctx, n, k, r, degree=2)
        if p_k(rho, k).is_zero():
            continue
        out.append((rho, k))
    return out


def test_criterion_01_eq32_decomposition():
    t0 = time.time()
    corpus = _eq32_corpus(101, 50)
    ok = True
    for rho, k in corpus:
        I = interior_euler(rho, k)
        R = residual(rho, k)
        ok = ok and p_k(rho, k) == I + p_k(exterior_d(p_k(R, k)), k)
    ok = ok and (time.time() - t0) < 60
    _announce(1, ok, f"eq. (32) decomposition on {len(corpus)} random forms", t0)


def test_criterion_02_interior_euler_properties():
    t0 = time.time()
    ok = True
    for rho, k in _eq32_corpus(102, 50):
        I = interior_euler(rho, k)
        boundary = p_k(exterior_d(p_k(residual(rho, k), k)), k)
        if not boundary.is_zero():
            ok = ok and interior_euler(boundary, k).is_zero()   # (b)
        ok = ok and interior_euler(I, k) == I                   # (c)
    # (d): ten constructed members of the contact ideal
    rng = random.Random(112)
    built = 0
    while built < 10:
        n, m = rng.choice([1, 2]), rng.choice([1, 2])
        ctx = Context(n=n, m=m)
        if built % 2 == 0:
            mu = rand_form(rng, ctx, n - 1, 1, 1)       # contact n-form
            rho, k = exterior_d(mu), 1
        else:
            mu = rand_form(rng, ctx, n - 1, 2, 1)       # strongly contact (n+1)-form
            rho, k = exterior_d(mu), 2
        if p_k(rho, k).is_zero():
            continue
        ok = ok and interior_euler(rho, k).is_zero()
        built += 1
    _announce(2, ok, "interior Euler properties (b), (c), (d)", t0)


def test_criterion_03_prop_volume():
    t0 = time.time()
    rng = random.Random(103)
    ok = True
    for r in (1, 2):
        for (n, m) in [(1, 1), (2, 1), (2, 2), (1, 2)]:
            ctx = Context(n=n, m=m)
            V = rand_morphism(rng, ctx, 0, r)
            xi = vertical_field(ctx)     # generic opaque Xi(x, y)
            res = split_like(V)
            rho = to_contact_form(V)
            ok = ok and res.volume.evaluate(xi) == \
                contract_prolonged(interior_euler(rho, 1), xi)
            ok = ok and d_H(res.boundary.evaluate(xi)) == \
                contract_prolonged(d_H(residual(rho, 1)), xi)
            ok = ok and V.evaluate(xi) == \
                res.volume.evaluate(xi) + d_H(res.boundary.evaluate(xi))
    _announce(3, ok, "Prop. Volume: codegree-0 split against I and R", t0)


def test_criterion_04_prop_div():
    t0 = time.time()
    rng = random.Random(104)
    ok, checked = True, 0
    while checked < 20:
        n, m = rng.choice([2, 3]), rng.choice([1, 2])
        k, r, s = rng.choice([1, 2]), rng.choice([1, 2]), rng.choice([1, 2])
        if s > n - 1:
            continue
        ctx = Context(n=n, m=m)
        rho = rand_form(rng, ctx, n - s, k, r, degree=2)
        if p_k(rho, k).is_zero():
            continue
        fam = ibp_expand(rho, k)
        chi = chi_table(fam)
        lhs = Form.zero(ctx)
        for block in itertools.combinations(range(1, n + 1), s):
            for lm in range(1, fam.r + 1):
                for M in itertools.product(range(1, n + 1), repeat=lm):
                    anti = chi_antisym(ctx, chi, block, M[0], tuple(sorted(M[1:])))
                    if anti.is_zero():
                        continue
                    lhs = lhs + wedge(total_derivative_form_multi(anti, M),
                                      ds_block(ctx, block))
        ok = ok and lhs == d_H(residual(rho, k))
        checked += 1
    _announce(4, ok, f"Prop. div identity on {checked} random instances", t0)


def test_criterion_05_prop_r1():
    t0 = time.time()
    rng = random.Random(105)
    ok = True
    for (n, m) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for s in range(1, n):
            ctx = Context(n=n, m=m)
            V = rand_morphism(rng, ctx, s, 1)
            like = split_like(V)
            canon = split_canonical_codegree_s(V)
            ok = ok and (like.volume - canon.volume).is_zero()
            ok = ok and (like.boundary - canon.boundary).is_zero()
    _announce(5, ok, "Prop. r=1: E' = E and T' = T coefficient-wise", t0)


def test_criterion_06_prop_da():
    t0 = time.time()
    ok = True
    for (n, m) in [(2, 1), (3, 1), (2, 2)]:
        ctx = Context(n=n, m=m)
        # generic opaque coefficient functions A(x, y, y_j, y_jk)
        V = generic_morphism(ctx, 1, 2, order=2)
        like = split_like(V)
        canon = split_canonical_codegree_s(V)
        alpha, dalpha = alpha_discrepancy(V)
        xi = formal_field(ctx)
        ok = ok and (like.boundary - (canon.boundary + alpha)).is_zero()
        ok = ok and like.volume.evaluate(xi) == \
            canon.volume.evaluate(xi) - dalpha.evaluate(xi)
        # displayed alpha coefficients carry -1/6
        for block in itertools.combinations(range(1, n + 1), 2):
            for sigma in range(1, m + 1):
                acc = Scalar.zero()
                for a in range(1, n + 1):
                    acc = acc + se.total_derivative(
                        antisym_value(V, block, sigma, (a,)), a)
                ok = ok and alpha.value(block, sigma, ()) == acc * Fraction(-1, 6)
                for a in range(1, n + 1):
                    ok = ok and alpha.value(block, sigma, (a,)) == \
                        antisym_value(V, block, sigma, (a,)) * Fraction(-1, 6)
        # -D(alpha) leading coefficient: 1/3 d_b d_a A^{[ib]a}
        for i in range(1, n + 1):
            for sigma in range(1, m + 1):
                acc = Scalar.zero()
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        acc = acc + se.total_derivative(se.total_derivative(
                            antisym_value(V, (i, b), sigma, (a,)), a), b)
                ok = ok and dalpha.value((i,), sigma, ()) == acc * Fraction(-1, 3)
    elapsed_ok = (time.time() - t0) < 120
    _announce(6, ok and elapsed_ok, "Prop. Da: alpha and eq:Lepage identities", t0)


def test_criterion_07_splittfati():
    t0 = time.time()
    ok = True
    d = se.total_derivative
    for (n, m) in [(2, 1), (3, 1), (2, 2)]:
        ctx = Context(n=n, m=m)
        V = generic_morphism(ctx, 1, 2)
        canon = split_canonical_codegree_s(V)
        like = split_like(V)
        xi = formal_field(ctx)
        # the splitting identity pins every coefficient jointly
        ok = ok and V.evaluate(xi) == \
            canon.volume.evaluate(xi) + d_H(canon.boundary.evaluate(xi))
        ok = ok and is_reduced(canon.volume)
        for i in range(1, n + 1):
            for sigma in range(1, m + 1):
                # volume omega-coefficient: A^i - d_a A^{[ia]} + 2/3 d_b d_a A^{[ib]a}
                # (the displayed -2/3 contradicts the difference display
                #  E' - E = 1/3 d_b d_a A^{[ib]a}; the + sign satisfies both)
                expect = V.value((i,), sigma, ())
                for a in range(1, n + 1):
                    expect = expect - d(antisym_value(V, (i, a), sigma, ()), a)
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        expect = expect + Fraction(2, 3) * d(d(
                            antisym_value(V, (i, b), sigma, (a,)), a), b)
                ok = ok and canon.volume.value((i,), sigma, ()) == expect
                diff = like.volume.value((i,), sigma, ()) - canon.volume.value((i,), sigma, ())
                acc = Scalar.zero()
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        acc = acc + d(d(antisym_value(V, (i, b), sigma, (a,)), a), b)
                ok = ok and diff == acc * Fraction(1, 3)
                # volume omega_{j1}-coefficient with the 2/3 factors
                for j1 in range(1, n + 1):
                    expect = (V.value((i,), sigma, (j1,))
                              + V.value((j1,), sigma, (i,))) * Fraction(1, 2)
                    for a in range(1, n + 1):
                        expect = expect + Fraction(2, 3) * d(V.value((a,), sigma, (i, j1)), a)
                        expect = expect - Fraction(2, 3) * d(
                            (V.value((i,), sigma, (j1, a))
                             + V.value((j1,), sigma, (i, a))) * Fraction(1, 2), a)
                    ok = ok and canon.volume.value((i,), sigma, (j1,)) == expect
                    # volume omega_{j1j2}-coefficient: full symmetrization
                    for j2 in range(1, n + 1):
                        total = Scalar.zero()
                        for p in itertools.permutations((i, j1, j2)):
                            total = total + V.value((p[0],), sigma, (p[1], p[2]))
                        ok = ok and canon.volume.value((i,), sigma, (j1, j2)) == \
                            total * Fraction(1, 6)
        # boundary: 1/2 (A^{[i1i2]} - 2/3 d_a A^{[i1i2]a}) and (1/2)(4/3) A^{[i1i2]j}
        for block in itertools.combinations(range(1, n + 1), 2):
            for sigma in range(1, m + 1):
                expect = antisym_value(V, block, sigma, ())
                for a in range(1, n + 1):
                    expect = expect - Fraction(2, 3) * d(
                        antisym_value(V, block, sigma, (a,)), a)
                ok = ok and canon.boundary.value(block, sigma, ()) == \
                    expect * Fraction(1, 2)
                for j in range(1, n + 1):
                    ok = ok and canon.boundary.value(block, sigma, (j,)) == \
                        antisym_value(V, block, sigma, (j,)) * Fraction(1, 2) * Fraction(4, 3)
    _announce(7, ok, "eq:splittFati coefficients on generic symbolic A", t0)


def test_criterion_08_kb_first_order():
    t0 = time.time()
    rng = random.Random(108)
    ok = True
    for (n, m) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = Context(n=n, m=m)
        for _ in range(10):
            lam = Lagrangian(ctx, 1, rand_density(rng, ctx, 1, degree=3))
            ok = ok and rossi_recurrence(lam).terminal == krupka_betounes_first(lam)
    ctx = Context(n=2, m=2)
    null = Lagrangian(ctx, 1, se.y(1, 1) * se.y(2, 2) - se.y(1, 2) * se.y(2, 1))
    rho2 = rossi_recurrence(null).terminal
    ok = ok and exterior_d(rho2).is_zero()
    elapsed_ok = (time.time() - t0) < 120
    _announce(8, ok and elapsed_ok,
              "Krupka-Betounes first order: 40 recurrences + closed null form", t0)


def test_criterion_09_second_order():
    t0 = time.time()
    ok = True
    for (n, m) in [(2, 1), (2, 2)]:
        ctx = Context(n=n, m=m)
        lam = generic_lagrangian(ctx, 2)
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
                            c = se.partial(lam.momentum(s2, (i2, j2)), ('y', s1, (i1,)))
                            expect = expect + wedge_all(
                                omega(ctx, s1), omega(ctx, s2, j2),
                                ds_block(ctx, (i1, i2))).scale(c * Fraction(1, 2))
        ok = ok and rho2 == expect
        ok = ok and chain.terminal == kb_second_order(lam, "plain")
    rng = random.Random(109)
    for (n, m) in [(2, 2), (3, 2)]:
        ctx = Context(n=n, m=m)
        d1 = rand_density(rng, ctx, 1)
        ok = ok and kb_second_order(Lagrangian(ctx, 2, d1), "generalized") == \
            krupka_betounes_first(Lagrangian(ctx, 1, d1))
    _announce(9, ok, "second order: displayed rho_2, plain rho_n, generalized reduction", t0)


def test_criterion_10_euler_lagrange_sanity():
    t0 = time.time()
    ctx = Context(n=2, m=1)
    dirichlet = Lagrangian(ctx, 1, se.rational(1, 2) * (se.y(1, 1) ** 2 + se.y(1, 2) ** 2))
    ok = euler_lagrange(dirichlet) == wedge(omega(ctx, 1), volume(ctx)).scale(
        Scalar.zero() - se.y(1, 1, 1) - se.y(1, 2, 2))
    ctx1 = Context(n=1, m=1)
    beam = Lagrangian(ctx1, 2, se.rational(1, 2) * se.y(1, 1, 1) ** 2)
    ok = ok and euler_lagrange(beam) == \
        wedge(omega(ctx1, 1), dx(ctx1, 1)).scale(se.y(1, 1, 1, 1, 1))
    ctx22 = Context(n=2, m=2)
    null = Lagrangian(ctx22, 1, se.y(1, 1) * se.y(2, 2) - se.y(1, 2) * se.y(2, 1))
    ok = ok and euler_lagrange(null).is_zero()
    _announce(10, ok, "Euler-Lagrange sanity: Laplace, beam, null Lagrangian", t0)


def test_criterion_11_calculus_substrate():
    t0 = time.time()
    rng = random.Random(111)
    forms = []
    while len(forms) < 100:
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        ctx = Context(n=n, m=m)
        rho = rand_form(rng, ctx, rng.randint(0, n), rng.randint(0, 2),
                        rng.randint(0, 2), terms=2)
        if not rho.is_zero():
            forms.append(rho)
    ok = True
    for rho in forms:
        n = rho.ctx.n
        ok = ok and exterior_d(exterior_d(rho)).is_zero()
        ok = ok and d_H(d_H(rho)).is_zero()
        ok = ok and d_C(d_C(rho)).is_zero()
        ok = ok and (d_H(d_C(rho)) + d_C(d_H(rho))).is_zero()
        ok = ok and d_H(rho) == d_H_walk(rho)
        i, j = rng.randint(1, n), rng.randint(1, n)
        ok = ok and total_derivative_form(total_derivative_form(rho, i), j) == \
            total_derivative_form(total_derivative_form(rho, j), i)
    # Leibniz rules on pairs
    for _ in range(25):
        ctx = Context(n=2, m=2)
        ha, ka = rng.randint(0, 1), rng.randint(0, 1)
        a = rand_form(rng, ctx, ha, ka, 1, terms=2)
        b = rand_form(rng, ctx, rng.randint(0, 1), rng.randint(0, 1), 1, terms=2)
        i = rng.randint(1, 2)
        ok = ok and total_derivative_form(wedge(a, b), i) == \
            wedge(total_derivative_form(a, i), b) + wedge(a, total_derivative_form(b, i))
        ok = ok and d_H(wedge(a, b)) == \
            wedge(d_H(a), b) + wedge(a, d_H(b)).scale((-1) ** (ha + ka))
    elapsed_ok = (time.time() - t0) < 60
    _announce(11, ok and elapsed_ok,
              "calculus substrate laws on 100 random forms + Leibniz pairs", t0)


def test_criterion_12_cli():
    t0 = time.time()
    import contextlib
    import io
    ok = True
    for name in sorted(CHECKS):
        for seed in range(5):
            passed, _ = run_identity(name, seed)
            ok = ok and passed
    # the CLI surface agrees and exits 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["verify", "--identity", "all", "--seed", "3"])
    ok = ok and code == 0 and "FAIL" not in buf.getvalue()
    # text round-trip over the golden corpus
    rng = random.Random(112)
    corpus = [rand_form(rng, Context(n=rng.randint(1, 3), m=rng.randint(1, 2)),
                        1, 1, 1) for _ in range(6)]
    corpus.append(wedge(omega(Context(n=2, m=1), 1), volume(Context(n=2, m=1))))
    for rho in corpus:
        if rho.is_zero():
            continue
        back = parse_form(form_text(rho), rho.ctx, rho.order() + 1)
        ok = ok and back == rho
    # JSON output byte-stable across two runs
    argv = ["kb", "--base-dim", "2", "--fiber-dim", "2", "--order", "1",
            "--format", "json", "u_x*v_y - u_y*v_x"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        ok = ok and code == 0
        outs.append(buf.getvalue())
    ok = ok and outs[0] == outs[1]
    _announce(12, ok, "CLI verify (8 identities x 5 seeds), round-trip, JSON stability", t0)
