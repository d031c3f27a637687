"""The product and Leibniz kernels against build-then-merge oracles, and the
pairing sum against pairing each term on its own."""

import math
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from jetform import symexpr as se
from jetform.forms import (Context, Form, _add_terms, _summed, contract_prolonged,
                           ds_block)
from jetform.interior_euler import interior_euler
from jetform.randomgen import generic_morphism, rand_form, rand_morphism
from jetform.symexpr import Scalar, _merge
from jetform.varmorph import (_pairing_sum, formal_field, split_canonical_codegree_s,
                              split_like, to_contact_form, vertical_field)


# -- the two-step oracles: build the whole product or derivative, then merge -----------

def product(a: dict, b: dict) -> dict:
    """a b for {monomial: coefficient} maps, each monomial product summed
    by exponents and put in rank order; zero coefficients dropped."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = Counter(dict(ma))
            exps.update(dict(mb))
            m = tuple(sorted(exps.items(), key=lambda p: p[0].rank))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def derivative(terms: dict, atom_rule) -> dict:
    """D(terms) by the Leibniz rule, one factor at a time, each term of the
    derivative built whole before it is summed."""
    out: dict = {}
    for mono, coeff in terms.items():
        for t, (a, k) in enumerate(mono):
            rest = {mono[:t] + ((a, k - 1),) * (k > 1) + mono[t + 1:]: coeff * k}
            _merge(out, product(rest, atom_rule(a).terms))
    return out


def two_step(prefill: dict, terms: dict, w) -> dict:
    out = dict(prefill)
    _merge(out, terms, w)
    return out


# -- drawn scalars -------------------------------------------------------------------

N, M = 2, 2

_COEFFS = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool)
_WEIGHTS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-3, 3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3))


def _atoms() -> list:
    """x, y up to order 2, opaque atoms of order -1..1, one labelled partial,
    and formal atoms D_I f, |I| <= 2."""
    xs = [se.atom(('x', i)) for i in range(1, N + 1)]
    ys = [se.y_atom(sigma, J) for sigma in range(1, M + 1) for J in se.jet_keys(N, 2)]
    fs = [next(iter(se.opaque(name, (1,), n=N, m=M, order=order).terms))[0][0]
          for name, order in (("F", 1), ("G", 0), ("H", -1))]
    fs.append(next(iter(se.partial(Scalar({((fs[0], 1),): 1}), ('y', 1, (1,))).terms))[0][0])
    gs = [se.atom(('g', f.key, I)) for f in fs[:3] for I in ((1,), (2,), (1, 2))]
    return xs + ys + fs + gs


@st.composite
def _scalars(draw, atoms):
    terms: dict = {}
    for _ in range(draw(st.integers(0, 4))):
        # indices, not atoms: strategies are cached, and one that held the
        # atoms would keep them interned past the test
        picked = draw(st.lists(st.integers(0, len(atoms) - 1), max_size=3, unique=True))
        mono = tuple(sorted(((atoms[p], draw(st.integers(1, 3))) for p in picked),
                            key=lambda p: p[0].rank))
        terms[mono] = draw(_COEFFS)
    return terms


@st.composite
def _prefilled(draw, atoms, added):
    """A bucket to add into: empty, drawn, or minus what is added, so that
    the sum cancels to {}."""
    kind = draw(st.sampled_from(["empty", "drawn", "cancel"]))
    if kind == "empty":
        return {}
    if kind == "drawn":
        return draw(_scalars(atoms))
    return {m: -c for m, c in added.items() if c}


@given(st.data())
def test_mul_into_leaves_what_the_product_then_merge_leaves(data):
    # the atoms die with the test: no formal atom outlives it
    atoms = _atoms()
    a, b = data.draw(_scalars(atoms)), data.draw(_scalars(atoms))
    w = data.draw(_WEIGHTS)
    want_added = product(a, b)
    prefill = data.draw(_prefilled(atoms, {m: c * w for m, c in want_added.items()}))
    got = dict(prefill)
    se._mul_into(got, a, b, w)
    assert got == two_step(prefill, want_added, w)
    assert all(got.values())
    assert (Scalar(a) * Scalar(b)).terms == want_added


@given(st.data())
def test_derive_into_leaves_what_the_derivative_then_merge_leaves(data):
    atoms = _atoms()
    e = data.draw(_scalars(atoms))
    w = data.draw(_WEIGHTS)
    kind = data.draw(st.sampled_from(["total", "formal total", "partial"]))
    i = data.draw(st.integers(1, N))
    scope = se._formal_scope() if kind == "formal total" else se._memo_scope()
    with scope:
        if kind == "partial":
            c = se.atom(data.draw(st.sampled_from([('x', i), ('y', 1, ()), ('y', 2, (i,))])))
            rule = lambda a: se._atom_partial(a, c, se._derived)
        else:
            rule = se._d_rule(i)
        want_added = derivative(e, rule)
        prefill = data.draw(_prefilled(atoms, {m: v * w for m, v in want_added.items()}))
        got = dict(prefill)
        se._derive_into(got, e, rule, w)
        assert got == two_step(prefill, want_added, w)
        assert all(got.values())
        assert se._derive_monomials(Scalar(e), rule).terms == want_added


# -- a zero weight adds nothing ------------------------------------------------------------

def test_a_zero_weight_adds_nothing():
    # a bucket of zero coefficients would be a Scalar that prints 0*u_1 and
    # is not is_zero()
    u1 = se.y(1, 1)
    out = {((se.atom(('y', 1, ())), 1),): 2}
    before = dict(out)
    _merge(out, (u1 * se.x(1) + 3).terms, 0)
    assert out == before
    acc: dict = {}
    _add_terms(acc, 0, u1.terms, 0)
    assert acc == {}
    assert _summed(Context(n=1, m=1), acc).is_zero()


def test_the_kernels_add_nothing_at_a_zero_weight():
    t = (se.y(1, 1) * se.x(1) + 3).terms
    out = {((se.atom(('y', 1, ())), 1),): 2}
    before = dict(out)
    se._mul_into(out, t, t, 0)
    se._derive_into(out, t, se._d_rule(1), 0)
    assert out == before


# -- the pairing sum against one pairing per term ---------------------------------------------

def pairing(V, xi: dict) -> Form:
    """<V|J^r Xi> from the divided coefficients, one stored key at a time:
    s! A^{block J}_sigma d_J Xi^sigma ds_block."""
    ctx, out = V.ctx, Form.zero(V.ctx)
    for (block, sigma, J), c in V.coeffs.items():
        d = se.total_derivative_multi(xi[sigma], J)
        out = out + ds_block(ctx, block).scale(c * d * math.factorial(V.s))
    return out


def pairings_summed(xi: dict, terms) -> Form:
    out = None
    for F, c in terms:
        part = (F if isinstance(F, Form) else pairing(F, xi)).scale(c)
        out = part if out is None else out + part
    return out


def _morphisms(n: int, m: int, seed: int):
    ctx = Context(n=n, m=m)
    rng = random.Random(seed)
    s = rng.randrange(n)
    r = rng.choice([1, 2])
    return ctx, generic_morphism(ctx, s, r), rand_morphism(rng, ctx, s, r)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
@pytest.mark.parametrize("seed", range(2))
def test_pairing_sum_is_the_sum_of_each_pairing(n, m, seed):
    ctx, G, R = _morphisms(n, m, seed)
    for xi in (formal_field(ctx), vertical_field(ctx)):
        for terms in ([(G, 1)], [(R, 1)], [(G, 1), (R, -2)], [(R, 3), (G, 1), (R, -3)]):
            got = _pairing_sum(xi, terms)
            assert got == pairings_summed(xi, terms)
        assert not _pairing_sum(xi, [(G, 1), (R, -2)]).is_zero()


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 1)])
def test_pairing_sum_of_morphisms_and_forms(n, m):
    # the prop-volume shape: a morphism against a form that pairs to the same,
    # and a sum of morphisms and forms that does not cancel
    ctx = Context(n=n, m=m)
    rng = random.Random(n * 10 + m)
    V = rand_morphism(rng, ctx, 0, 2)
    xi = vertical_field(ctx)
    E = split_canonical_codegree_s(V).volume
    volume_form = contract_prolonged(interior_euler(to_contact_form(V), 1), xi)
    assert _pairing_sum(xi, [(E, 1), (volume_form, -1)]).is_zero()
    rho = rand_form(rng, ctx, n, 1, 1)
    other = contract_prolonged(rho, xi)
    like = split_like(V)
    terms = [(V, 2), (other, -1), (like.volume, 1), (volume_form, 3)]
    got = _pairing_sum(xi, terms)
    assert got == pairings_summed(xi, terms) and not got.is_zero()
