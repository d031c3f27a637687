import itertools
import math
import random

import pytest

from jetform import cli
from jetform import interior_euler as ie
from jetform import symexpr as se
from jetform.forms import (Context, Form, d_C, d_H, ds_block, dx, exterior_d,
                           omega, p_k, total_derivative_form_multi, volume,
                           wedge)
from jetform.interior_euler import (ExpansionMismatch, RecompositionFailure,
                                    eta_decompose, ibp_expand, interior_euler,
                                    residual)
from jetform.randomgen import rand_form
from jetform.verify import _gathered_chi
from jetform.symexpr import Scalar
from form_oracles import (chi_antisym, chi_table, degree_grid, interior_euler_chain,
                          split_lower, wedge_all)

CTX1 = Context(n=1, m=1)


def free_particle():
    lam = dx(CTX1, 1).scale(se.rational(1, 2) * se.y(1, 1) ** 2)
    return exterior_d(lam)


# -- eta decomposition ------------------------------------------------------------

def test_eta_single_term():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx))
    dec = eta_decompose(rho, 1)
    assert set(dec.etas) == {(1, ())}
    assert dec.etas[(1, ())] == volume(ctx)


def test_eta_two_contact_weights():
    ctx = Context(n=2, m=1)
    rho = wedge_all(omega(ctx, 1), omega(ctx, 1, 1), ds_block(ctx, (1,)))
    dec = eta_decompose(rho, 2)
    half = se.rational(1, 2)
    assert dec.etas[(1, ())] == wedge(omega(ctx, 1, 1), ds_block(ctx, (1,))).scale(half)
    assert dec.etas[(1, (1,))] == wedge(omega(ctx, 1), ds_block(ctx, (1,))).scale(-half)


def test_eta_horizontal_input_is_empty():
    ctx = Context(n=2, m=1)
    dec = eta_decompose(volume(ctx).scale(se.y(1)), 0)
    assert dec.etas == {}


def test_eta_bad_custom_family_raises():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx))
    with pytest.raises(RecompositionFailure):
        eta_decompose(rho, 1, etas={(1, ()): volume(ctx).scale(se.rational(2))})


# -- integration by parts -----------------------------------------------------------

def test_ibp_order_zero():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx)).scale(se.y(1))
    fam = ibp_expand(rho, 1)
    assert set(fam.xi) == {(1, ())}


def test_ibp_r1_telescope():
    # xi_0 = eta_0 - d_j eta^j, xi^i = eta^i
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx)).scale(se.y(1)) \
        + wedge(omega(ctx, 1, 1), volume(ctx)).scale(se.y(1, 2)) \
        + wedge(omega(ctx, 1, 2), volume(ctx)).scale(se.y(1, 1))
    fam = ibp_expand(rho, 1)
    assert fam.xi[(1, (1,))] == volume(ctx).scale(se.y(1, 2))
    assert fam.xi[(1, (2,))] == volume(ctx).scale(se.y(1, 1))
    expect0 = volume(ctx).scale(
        se.y(1) - se.total_derivative(se.y(1, 2), 1) - se.total_derivative(se.y(1, 1), 2))
    assert fam.xi[(1, ())] == expect0


def test_stored_family_is_int_when_eta_has_denominators_2_and_3():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1, 1), volume(ctx)).scale(se.rational(1, 2) * se.y(1, 2)) \
        + wedge(omega(ctx, 1, 1, 2), volume(ctx)).scale(se.rational(1, 3) * se.y(1, 1)) \
        + wedge(omega(ctx, 1), volume(ctx)).scale(se.x(1))
    fam = ibp_expand(rho, 1)
    assert fam.denominator == 6
    assert {I for _, I in fam.int_xi} == {(), (1,), (2,), (1, 2)}
    assert {I for _, I in chi_table(fam)} == {(1,), (2,), (1, 2)}
    coeffs = [v for f in fam.int_xi.values() for c in f.terms.values() for v in c.terms.values()]
    assert coeffs and all(type(v) is int for v in coeffs)
    # the views divide back by D mult(I): eta^{12} is stored per sorted key
    assert fam.xi[(1, (1, 2))] == volume(ctx).scale(se.rational(1, 6) * se.y(1, 1))
    assert fam.int_xi[(1, (1, 2))] == volume(ctx).scale(se.rational(2) * se.y(1, 1))


def test_eta_failure_names_the_stage_and_the_smallest_term():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx)).scale(se.y(1, 1))
    bad = {(1, ()): volume(ctx).scale(se.rational(1, 2) * se.y(1, 1))}
    with pytest.raises(RecompositionFailure) as err:
        eta_decompose(rho, 1, etas=bad)
    assert str(err.value) == (
        "eta family does not recompose p_k rho (k=1, s=0, D=2); smallest "
        "differing term: rebuilt (1/2*u_1) * w(u) /\\ ds, expected (u_1) * w(u) /\\ ds")


def test_a_wrong_binomial_weight_is_caught(monkeypatch, capsys):
    # C(K_a, 1) one too large: xi^() takes -2 d_1 eta^1 instead of -d_1 eta^1
    monkeypatch.setattr(ie, "comb", lambda a, b: math.comb(a, b) + (b == 1))
    expr = "1/2*u_1 * w(u,1) /\\ ds"
    message = ("xi telescoping does not rebuild p_k rho (k=1, s=0, D=2); smallest "
               "differing term: rebuilt (-1/2*u_11) * w(u) /\\ ds, expected 0")
    ctx = Context(n=1, m=1)
    rho = wedge(omega(ctx, 1, 1), volume(ctx)).scale(se.rational(1, 2) * se.y(1, 1))
    with pytest.raises(ExpansionMismatch) as err:
        ibp_expand(rho, 1)
    assert str(err.value) == message
    code = cli.main(["residual", "-n", "1", "-m", "1", "-r", "1", expr])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"internal error: {message}\n"


def test_ibp_random_exactness_holds():
    rng = random.Random(21)
    for _ in range(8):
        n = rng.choice([1, 2])
        ctx = Context(n=n, m=rng.choice([1, 2]))
        rho = rand_form(rng, ctx, n, 1, 2)
        fam = ibp_expand(rho, 1)  # would raise ExpansionMismatch on failure
        assert fam.k == 1


# -- interior Euler operator -----------------------------------------------------------

def test_ieuler_fixed_point_without_derivatives():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx)).scale(se.x(1) * se.x(2))
    assert interior_euler(rho, 1) == rho


def test_ieuler_free_particle():
    got = interior_euler(free_particle(), 1)
    assert got == wedge(omega(CTX1, 1), dx(CTX1, 1)).scale(-se.y(1, 1, 1))


def test_ieuler_is_the_per_J_chain():
    # n <= 4, every horizontal degree, contact degree 0-3, k = 1-3
    nonzero = {1: 0, 2: 0, 3: 0}
    for rho in degree_grid(31):
        for k in nonzero:
            got = interior_euler(rho, k)
            assert got == interior_euler_chain(rho, k)
            nonzero[k] += not got.is_zero()
    assert min(nonzero.values()) >= 10


def test_ieuler_is_the_empty_index_term_of_the_telescope():
    # two independent routes: the trie of contractions against the
    # I = () term of the integration by parts, sum of omega^sigma ^ xi^()
    rng = random.Random(70)
    rhos = []
    for _ in range(30):
        n, m = rng.choice([1, 2, 3]), rng.choice([1, 2])
        k, s = rng.choice([1, 2]), rng.choice([0, 1])
        ctx = Context(n=n, m=m)
        rhos.append((rand_form(rng, ctx, n - s, k, rng.choice([1, 2])), k))
    for n, m, order in [(1, 1, 2), (2, 1, 1), (2, 2, 1), (3, 1, 2)]:
        ctx = Context(n=n, m=m)
        density = se.opaque("L", n=n, m=m, order=order)
        rhos.append((d_C(volume(ctx).scale(density)), 1))
    checked = 0
    for rho, k in rhos:
        if p_k(rho, k).is_zero():
            continue
        ctx = rho.ctx
        fam = ibp_expand(rho, k)
        want = Form.zero(ctx)
        for (sigma, I), x in fam.xi.items():
            if not I:
                want = want + wedge(omega(ctx, sigma), x)
        assert interior_euler(rho, k) == want
        checked += 1
    assert checked >= 25


def test_ieuler_kills_dH_of_contact_forms():
    rng = random.Random(22)
    for _ in range(6):
        n = rng.choice([1, 2])
        ctx = Context(n=n, m=rng.choice([1, 2]))
        mu = rand_form(rng, ctx, n - 1, 1, 1)  # contact n-form
        rho = exterior_d(mu)
        if p_k(rho, 1).is_zero():
            continue
        assert interior_euler(rho, 1).is_zero()


def test_residual_top_free_particle_and_eq32():
    rho = free_particle()
    R = residual(rho, 1)
    assert R == omega(CTX1, 1).scale(-se.y(1, 1))
    assert p_k(rho, 1) == interior_euler(rho, 1) + p_k(exterior_d(p_k(R, 1)), 1)


def test_residual_vanishes_at_order_zero():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx)).scale(se.y(1) ** 2)
    assert residual(rho, 1).is_zero()


def test_eq32_randomized_with_properties():
    rng = random.Random(23)
    checked = 0
    for _ in range(16):
        n, m = rng.choice([1, 2]), rng.choice([1, 2])
        k, r = rng.choice([1, 2]), rng.choice([1, 2])
        ctx = Context(n=n, m=m)
        rho = rand_form(rng, ctx, n, k, r)
        if p_k(rho, k).is_zero():
            continue
        I = interior_euler(rho, k)
        R = residual(rho, k)
        boundary = p_k(exterior_d(p_k(R, k)), k)
        assert p_k(rho, k) == I + boundary
        if not boundary.is_zero():
            assert interior_euler(boundary, k).is_zero()  # property (b)
        assert interior_euler(I, k) == I                  # property (c)
        checked += 1
    assert checked >= 10


def test_residual_linearity():
    rng = random.Random(24)
    ctx = Context(n=2, m=1)
    a = rand_form(rng, ctx, 2, 1, 2)
    b = rand_form(rng, ctx, 2, 1, 2)
    lhs = residual(a + b.scale(se.rational(3)), 1)
    rhs = residual(a, 1) + residual(b, 1).scale(se.rational(3))
    assert lhs == rhs


# -- lower-degree residual ---------------------------------------------------------------

def test_residual_lower_linearity():
    rng = random.Random(28)
    ctx = Context(n=2, m=2)
    a = rand_form(rng, ctx, 1, 1, 2)
    b = rand_form(rng, ctx, 1, 1, 2)
    lhs = residual(a + b.scale(se.rational(-2, 3)), 1)
    rhs = residual(a, 1) + residual(b, 1).scale(se.rational(-2, 3))
    assert lhs == rhs


def test_residual_rejects_contact_degree_below_one():
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx)).scale(se.y(1, 1))
    for k in (0, -1):
        with pytest.raises(ValueError, match="contact degree"):
            residual(rho, k)


def test_residual_lower_vanishes_when_block_exceeds_n():
    # 0-horizontal: ds over s+1 > n indices dies
    ctx = Context(n=1, m=1)
    rho = wedge(omega(ctx, 1, 1), omega(ctx, 1)).scale(se.y(1, 1))
    out = residual(rho, 2)
    assert out.is_zero()


def test_prop_div_identity_randomized():
    rng = random.Random(25)
    checked = 0
    for _ in range(14):
        n, m = rng.choice([2, 3]), rng.choice([1, 2])
        k, r, s = rng.choice([1, 2]), rng.choice([1, 2]), rng.choice([1, 2])
        if s > n - 1:
            continue
        ctx = Context(n=n, m=m)
        rho = rand_form(rng, ctx, n - s, k, r)
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
        assert lhs == d_H(residual(rho, k))
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("s", [1, 2, 3])
def test_chi_gather_over_s_plus_1_lookups_is_the_ordering_walk(s):
    rng = random.Random(60 + s)
    n = 4
    ctx = Context(n=n, m=2)
    nonzero = 0
    for k in (1, 2):
        chi = chi_table(ibp_expand(rand_form(rng, ctx, n - s, k, 2, terms=4), k))
        # unsorted blocks too: the gather and the walk both sign the lookup
        for block in itertools.permutations(range(1, n + 1), s):
            for i in range(1, n + 1):
                for I in [()] + [(a,) for a in range(1, n + 1)]:
                    got = _gathered_chi(ctx, chi, block, i, I)
                    assert got == chi_antisym(ctx, chi, block, i, I)
                    nonzero += not got.is_zero()
    assert nonzero


def test_split_lower_three_way_sum():
    rng = random.Random(26)
    checked = 0
    for _ in range(10):
        n, m = rng.choice([2, 3]), rng.choice([1, 2])
        s, r = rng.choice([1, 2]), rng.choice([1, 2])
        if s > n - 1:
            continue
        ctx = Context(n=n, m=m)
        rho = rand_form(rng, ctx, n - s, 1, r)
        if p_k(rho, 1).is_zero():
            continue
        source, middle, boundary = split_lower(rho)
        assert source + middle + boundary == p_k(rho, 1)
        checked += 1
    assert checked >= 6


def test_split_lower_builds_the_xi_family_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ibp_expand(*args, **kwargs)

    monkeypatch.setattr(ie, "ibp_expand", counted)
    ctx = Context(n=3, m=1)
    rho = rand_form(random.Random(29), ctx, 2, 1, 2)
    assert not p_k(rho, 1).is_zero()
    source, middle, boundary = split_lower(rho)
    assert len(calls) == 1
    assert source + middle + boundary == p_k(rho, 1)


def test_split_lower_s0_degenerates_to_eq32():
    rng = random.Random(27)
    ctx = Context(n=2, m=1)
    rho = rand_form(rng, ctx, 2, 1, 1)
    source, middle, boundary = split_lower(rho)
    assert middle.is_zero()
    assert source == interior_euler(rho, 1)
    assert source + boundary == p_k(rho, 1)


def test_split_lower_antisymmetric_case_collapses():
    # chi antisymmetric in its own block: middle term vanishes
    ctx = Context(n=3, m=1)
    c = se.opaque("B", (), n=3, m=1, order=-1)
    rho = Form.zero(ctx)
    # rho = B (w_1 ^ ds_2 - w_2 ^ ds_1): A^{i j} = delta-antisymmetric
    rho = rho + wedge(omega(ctx, 1, 1), ds_block(ctx, (2,))).scale(c)
    rho = rho - wedge(omega(ctx, 1, 2), ds_block(ctx, (1,))).scale(c)
    source, middle, boundary = split_lower(rho)
    assert middle.is_zero()
    assert source + boundary == p_k(rho, 1)
