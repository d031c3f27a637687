import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from jetform import symexpr as se
from jetform.forms import (Context, Form, GradingMismatch, _bit, _contract, _insert, codegree,
                           contract_prolonged, d_C, d_H, dx, ds_block,
                           ds_parts, exterior_d, omega, p_k,
                           total_derivative_form, total_derivative_form_multi,
                           total_derivative_sum, volume, wedge)
from jetform.parser import parse_form
from jetform.printers import scalar_text
from jetform.randomgen import rand_form, rand_scalar
from jetform.symexpr import Scalar
from form_oracles import (bit_order, d_H_walk, degree_grid, t_contract, t_d_C, t_d_H,
                          t_degrees, t_ds_parts, t_from_pairs, t_p_k, t_total_derivative,
                          t_wedge, tuple_terms)

CTX2 = Context(n=2, m=2)
CTX1 = Context(n=1, m=1)


def corpus(seed, count, n_max=3, m_max=2, order=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(1, m_max)
        ctx = Context(n=n, m=m)
        h = rng.randint(0, n)
        k = rng.randint(0, 2)
        out.append(rand_form(rng, ctx, h, k, rng.randint(0, order)))
    return out


# -- grading ---------------------------------------------------------------------

def test_codegree_is_n_minus_the_single_horizontal_degree():
    ctx = Context(n=3, m=1)
    assert codegree(volume(ctx)) == 0
    assert codegree(wedge(omega(ctx, 1, 2), ds_block(ctx, (1,)))) == 1
    assert codegree(wedge(omega(ctx, 1), ds_block(ctx, (1, 3)))) == 2
    assert codegree(wedge(omega(ctx, 1), omega(ctx, 1, 1))) == 3
    assert codegree(Form.zero(ctx)) == 0
    with pytest.raises(GradingMismatch, match="mixed horizontal degrees"):
        codegree(volume(ctx) + dx(ctx, 1))


# -- wedge -----------------------------------------------------------------------

def test_wedge_nilpotent():
    assert wedge(dx(CTX2, 1), dx(CTX2, 1)).is_zero()


def test_wedge_reorders_with_sign():
    o = omega(CTX2, 1)
    assert wedge(o, dx(CTX2, 1)) == wedge(dx(CTX2, 1), o).scale(-1)


def test_wedge_graded_anticommutative_randomized():
    rng = random.Random(2)
    ctx = Context(n=3, m=2)
    for _ in range(15):
        pa, pb = rng.randint(0, 2), rng.randint(0, 2)
        ha, hb = rng.randint(0, 1), rng.randint(0, 1)
        a = rand_form(rng, ctx, ha, pa, 1, terms=2)
        b = rand_form(rng, ctx, hb, pb, 1, terms=2)
        qa, qb = ha + pa, hb + pb
        assert wedge(a, b) == wedge(b, a).scale((-1) ** (qa * qb))


def test_ds_blocks():
    ctx3 = Context(n=3, m=1)
    assert tuple_terms(ds_block(ctx3, (1, 2))) == {(('dx', 3),): Scalar.one()}
    assert tuple_terms(ds_block(ctx3, (2, 1))) == {(('dx', 3),): -Scalar.one()}
    assert ds_block(ctx3, (1, 1)).is_zero()
    assert ds_block(ctx3, ()) == volume(ctx3)
    # degenerate mechanics regime: ds_1 at n=1 is the scalar 1
    assert ds_block(CTX1, (1,)) == Form.from_scalar(CTX1, 1)
    assert ds_block(CTX1, (1, 1)).is_zero()


def _ds_by_contraction(ctx, block):
    """ds_block by contracting one index of the block at a time out of vol,
    keyed by its covectors in printed order."""
    covs = list(range(1, ctx.n + 1))
    sign = 1
    for idx in block:
        if idx not in covs:
            return {}
        pos = covs.index(idx)
        sign *= (-1) ** pos
        covs.remove(idx)
    return {tuple(('dx', i) for i in covs): Scalar.from_fraction(sign)}


def test_ds_block_sign_is_that_of_the_iterated_contraction():
    for n in range(1, 5):
        ctx = Context(n=n, m=1)
        # 0 and n+1 are out of range; repeats and blocks longer than n vanish
        for length in range(n + 2):
            for block in itertools.product(range(n + 2), repeat=length):
                assert tuple_terms(ds_block(ctx, block)) == _ds_by_contraction(ctx, block)


def test_ds_parts_roundtrip():
    ctx3 = Context(n=3, m=1)
    for block in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        assert ds_parts(ds_block(ctx3, block)) == {block: Form.from_scalar(ctx3, 1)}
    rng = random.Random(9)
    for _ in range(40):
        ctx = Context(n=rng.randint(1, 3), m=rng.randint(1, 2))
        rho = rand_form(rng, ctx, rng.randint(0, ctx.n), rng.randint(0, 2),
                        rng.randint(0, 2))
        rebuilt = Form.zero(ctx)
        for block, part in ds_parts(rho).items():
            assert part.degrees() <= {(0, k) for k in range(3)}
            rebuilt = rebuilt + wedge(part, ds_block(ctx, block))
        assert rebuilt == rho


def test_iota_a_extends_the_ds_block_past_a_pure_contact_factor():
    """chi ^ ds_{b a} = (-1)^k iota_a(chi ^ ds_b) for a k-contact k-form chi,
    the identity the residual operator rests on; a in b gives 0 on both sides."""
    rng = random.Random(17)
    for n in range(1, 5):
        ctx = Context(n=n, m=2)
        for k in range(4):
            chi = rand_form(rng, ctx, 0, k, 1)
            for length in range(n + 1):
                for b in itertools.permutations(range(1, n + 1), length):
                    for a in range(1, n + 1):
                        iota = _contract(wedge(chi, ds_block(ctx, b)), ('dx', a))
                        assert wedge(chi, ds_block(ctx, b + (a,))) == iota.scale((-1) ** k)


# -- masks against the tuple-keyed oracle -------------------------------------------

_N3M2 = Context(n=3, m=2)
_COVECTORS = [('dx', i) for i in range(1, 4)] + [
    ('w', sigma, J) for sigma in (1, 2) for J in se.jet_keys(3, 2)]


def _rand_pairs(rng, count):
    """(covectors, coefficient) pairs: up to four covectors in any order, a
    repeat now and then, and polynomial coefficients of jet order 2."""
    return [(tuple(rng.choice(_COVECTORS) for _ in range(rng.randint(0, 4))),
             rand_scalar(rng, _N3M2, 2)) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(st.permutations(_COVECTORS), st.integers(0, 2 ** 32))
def test_mask_operations_match_the_tuple_oracle_in_any_bit_order(order, seed):
    # the covectors take their bits in a drawn order, which disagrees with
    # printed order; every operation is decoded and compared with the
    # oracle's, which sorts covector tuples by sort_with_sign
    rng = random.Random(seed)
    with bit_order(order):
        pa, pb = _rand_pairs(rng, 6), _rand_pairs(rng, 3)
        a, b = Form.from_terms(_N3M2, pa), Form.from_terms(_N3M2, pb)
        ta, tb = tuple_terms(a), tuple_terms(b)
        assert ta == t_from_pairs(pa) and tb == t_from_pairs(pb)
        assert tuple_terms(wedge(a, b)) == t_wedge(ta, tb)
        for cov in rng.sample(_COVECTORS, 4):
            one = {(cov,): Scalar.one()}
            single = Form.from_terms(_N3M2, [((cov,), Scalar.one())])
            assert tuple_terms(wedge(single, a)) == t_wedge(one, ta)
            assert tuple_terms(_contract(a, cov)) == t_contract(ta, cov)
            for w, c in a.terms.items():
                got, sign = _insert(_bit(cov), w)
                want = t_wedge(one, tuple_terms(Form(_N3M2, {w: c})))
                assert tuple_terms(Form(_N3M2, {got: c * sign} if sign else {})) == want
        for i in range(1, 4):
            assert tuple_terms(total_derivative_form(a, i)) == t_total_derivative(ta, i)
        assert tuple_terms(d_H(a)) == t_d_H(ta, 3)
        assert tuple_terms(d_C(a)) == t_d_C(ta)
        for k in range(5):
            assert tuple_terms(p_k(a, k)) == t_p_k(ta, k)
        assert a.degrees() == t_degrees(ta)
        assert {block: tuple_terms(part) for block, part in ds_parts(a).items()} == \
            t_ds_parts(ta, 3)


# -- contact basis and grading ------------------------------------------------------

def test_dy_definition():
    f = parse_form("dy(u)", CTX1, 0)
    assert f == omega(CTX1, 1) + dx(CTX1, 1).scale(se.y(1, 1))


def test_horizontal_form_unchanged():
    lam = volume(CTX2).scale(rand_scalar(random.Random(1), CTX2, 1))
    assert p_k(lam, 0) == lam


def test_dy_wedge_dy1_chart_expression():
    # dy ^ dy_1 at n=1: w ^ w_1 + y_2 w ^ dx - y_1 w_1 ^ dx
    f = parse_form("dy(u) /\\ dy(u,1)", CTX1, 1)
    expect = wedge(omega(CTX1, 1), omega(CTX1, 1, 1)) \
        + wedge(omega(CTX1, 1), dx(CTX1, 1)).scale(se.y(1, 1, 1)) \
        - wedge(omega(CTX1, 1, 1), dx(CTX1, 1)).scale(se.y(1, 1))
    assert f == expect


def _rand_dy(rng):
    """dy(u) or dy(v), or one with a jet index 1 or 2, as the parser reads it."""
    field, j = rng.choice("uv"), rng.randint(1, 2)
    return f"dy({field},{j})" if rng.randint(0, 1) else f"dy({field})"


def test_grading_completeness():
    rng = random.Random(3)
    for _ in range(10):
        raw = []
        for _ in range(3):
            covs = [_rand_dy(rng) for _ in range(rng.randint(1, 2))]
            covs += [f"dx{i}" for i in range(1, rng.randint(1, 2) + 1)]
            raw.append(f"({scalar_text(rand_scalar(rng, CTX2, 1))}) * " + " /\\ ".join(covs))
        f = parse_form(" + ".join(raw), CTX2, 1)
        total = Form.zero(CTX2)
        for k in range(5):
            total = total + p_k(f, k)
        assert total == f


def test_pk_projector_laws():
    rho = wedge(omega(CTX2, 1), ds_block(CTX2, (1,)))
    assert p_k(rho, 0).is_zero()
    assert p_k(rho, 1) == rho
    assert p_k(p_k(rho, 1), 1) == rho


def test_p1_of_d_lambda():
    lam = dx(CTX1, 1).scale(se.rational(1, 2) * se.y(1, 1) ** 2)
    got = p_k(exterior_d(lam), 1)
    assert got == wedge(omega(CTX1, 1, 1), dx(CTX1, 1)).scale(se.y(1, 1))


# -- differentials --------------------------------------------------------------------

def test_d_on_basis():
    assert exterior_d(dx(CTX2, 1).scale(se.x(1))).is_zero()
    got = exterior_d(dx(CTX2, 2).scale(se.x(1)))
    assert got == wedge(dx(CTX2, 1), dx(CTX2, 2))
    assert exterior_d(omega(CTX1, 1)) == wedge(dx(CTX1, 1), omega(CTX1, 1, 1))


def test_d_squared_zero_randomized():
    for rho in corpus(4, 25):
        assert exterior_d(exterior_d(rho)).is_zero()


def test_total_derivative_form_rules():
    assert total_derivative_form(dx(CTX2, 2), 1).is_zero()
    assert total_derivative_form(omega(CTX1, 1), 1) == omega(CTX1, 1, 1)


def test_total_derivative_form_commutes_and_leibniz():
    rng = random.Random(5)
    ctx = Context(n=2, m=2)
    for _ in range(10):
        a = rand_form(rng, ctx, 1, 1, 1, terms=2)
        b = rand_form(rng, ctx, 0, 1, 1, terms=2)
        d12 = total_derivative_form(total_derivative_form(a, 1), 2)
        d21 = total_derivative_form(total_derivative_form(a, 2), 1)
        assert d12 == d21
        lhs = total_derivative_form(wedge(a, b), 1)
        rhs = wedge(total_derivative_form(a, 1), b) + wedge(a, total_derivative_form(b, 1))
        assert lhs == rhs


def test_total_derivative_sum_is_the_sum_of_each_d_J():
    rng = random.Random(17)
    parts, want = {}, Form(CTX2)
    # (2,) is no key, only the prefix of (2, 2) and (2, 2, 2)
    for J in [(), (1,), (1, 1), (1, 2), (2, 2), (1, 1, 2), (2, 2, 2)]:
        rho = rand_form(rng, CTX2, 1, 1, 1)
        parts[J] = {w: dict(c.terms) for w, c in rho.terms.items()}
        want = want + total_derivative_form_multi(rho, J)
    assert total_derivative_sum(CTX2, parts) == want
    assert not parts


def test_dH_of_ds_blocks_vanishes():
    ctx3 = Context(n=3, m=1)
    for block in [(), (1,), (2,), (1, 3)]:
        assert d_H(ds_block(ctx3, block)).is_zero()


def test_dH_top_horizontal_vanishes():
    f = volume(CTX2).scale(rand_scalar(random.Random(6), CTX2, 2))
    assert d_H(f).is_zero()


def test_differential_laws_randomized():
    for rho in corpus(7, 20) + degree_grid(8):
        assert d_H(d_H(rho)).is_zero()
        assert d_C(d_C(rho)).is_zero()
        assert (d_H(d_C(rho)) + d_C(d_H(rho))).is_zero()
        assert d_H(rho) == d_H_walk(rho)
        assert (d_H(rho) + d_C(rho)) == exterior_d(rho)


def reference_d_C(rho):
    """The definition sum over k of p_{k+1} d p_k, through the full d."""
    out = Form(rho.ctx)
    for k in range(rho.contact_degree() + 1):
        out = out + p_k(exterior_d(p_k(rho, k)), k + 1)
    return out


def reference_d_H(rho):
    """The definition sum over k of p_k d p_k, through the full d."""
    out = Form(rho.ctx)
    for k in range(rho.contact_degree() + 1):
        out = out + p_k(exterior_d(p_k(rho, k)), k)
    return out


def mixed_corpus(seed):
    """Random forms mixing contact degrees 0-2, some with opaque coefficients."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3):
        for m in (1, 2):
            ctx = Context(n=n, m=m)
            h = rng.randint(0, n)
            parts = [rand_form(rng, ctx, h, k, rng.randint(0, 2), terms=2) for k in (0, 1, 2)]
            out.append(parts[0] + parts[1] + parts[2])
            F = se.opaque("F", n=n, m=m, order=rng.randint(0, 2))
            out.append(rand_form(rng, ctx, h, rng.randint(0, 2), 1, terms=2).scale(F))
            out.append(volume(ctx).scale(se.opaque("L", n=n, m=m, order=2)))
    return out


def test_direct_differentials_match_their_definitions():
    rhos = corpus(71, 20) + mixed_corpus(72)
    assert {k for rho in rhos for _, k in rho.degrees()} == {0, 1, 2}
    for rho in rhos:
        assert d_C(rho) == reference_d_C(rho)
        assert d_H(rho) == reference_d_H(rho)


def test_dH_leibniz_with_sign():
    rng = random.Random(8)
    ctx = Context(n=3, m=2)
    for _ in range(8):
        ha, ka = rng.randint(0, 1), rng.randint(0, 1)
        a = rand_form(rng, ctx, ha, ka, 1, terms=2)
        b = rand_form(rng, ctx, rng.randint(0, 1), rng.randint(0, 1), 1, terms=2)
        q = ha + ka
        lhs = d_H(wedge(a, b))
        rhs = wedge(d_H(a), b) + wedge(a, d_H(b)).scale((-1) ** q)
        assert lhs == rhs


# -- contractions -----------------------------------------------------------------------

def test_contract_prolonged_examples():
    xi = {1: se.opaque("Xi", (1,), n=2, m=1, order=0)}
    ctx = Context(n=2, m=1)
    rho = wedge(omega(ctx, 1), volume(ctx))
    assert contract_prolonged(rho, xi) == volume(ctx).scale(xi[1])
    assert contract_prolonged(volume(ctx), xi).is_zero()
    rho1 = wedge(omega(ctx, 1, 1), volume(ctx))
    assert contract_prolonged(rho1, xi) == volume(ctx).scale(se.total_derivative(xi[1], 1))
