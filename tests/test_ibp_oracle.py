"""The integer telescope against the ordered-J Fraction telescope it replaced.

``reference_xi_chi`` and ``reference_residual`` are the earlier engine
code, kept here as a reference only: they sum over ordered multi-indices
J, divide each eta by its tuple multiplicity first, and carry Fraction
coefficients throughout.  The engine's ordered-convention views must
equal them, and so must its residual, which the engine reads off the xi
family by a contraction and never through chi.
"""

import itertools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from jetform import symexpr as se
from jetform.forms import (Context, Form, d_C, ds_block, ds_parts, omega, p_k,
                           total_derivative_form_multi, volume, wedge)
from jetform.interior_euler import eta_decompose, ibp_expand, residual
from jetform.multiindex import tuple_multiplicity
from jetform.randomgen import rand_form

from form_oracles import chi_table, degree_grid, formal_atoms


def reference_xi_chi(rho: Form, k: int):
    """(xi, chi, s) by the ordered-J telescope over Fraction coefficients."""
    ctx = rho.ctx
    dec = eta_decompose(rho, k)
    r, n = dec.r, ctx.n
    eta_ordered = {key: form.scale(Fraction(1, tuple_multiplicity(key[1])))
                   for key, form in dec.etas.items()}
    xi: dict = {}
    for sigma in sorted({sigma for sigma, _ in dec.etas}):
        for li in range(r + 1):
            for I in itertools.combinations_with_replacement(range(1, n + 1), li):
                acc = Form.zero(ctx)
                for lj in range(r - li + 1):
                    coeff = Fraction((-1) ** lj * math.comb(lj + li, lj))
                    for J in itertools.product(range(1, n + 1), repeat=lj):
                        base = eta_ordered.get((sigma, tuple(sorted(I + J))))
                        if base is None:
                            continue
                        acc = acc + total_derivative_form_multi(base, J).scale(coeff)
                if not acc.is_zero():
                    xi[(sigma, I)] = acc
    chi: dict = {}
    for (sigma, I), x in xi.items():
        if len(I) == 0:
            continue
        for block, part in ds_parts(wedge(omega(ctx, sigma), x)).items():
            chi[(block, I)] = chi.get((block, I), Form.zero(ctx)) + part
    chi = {key: v for key, v in chi.items() if not v.is_zero()}
    return xi, chi, dec.s


def reference_residual(ctx, k: int, s: int, chi: dict) -> Form:
    """(-1)^k/(s+1) sum over ordered M of d_{M[1:]} chi ^ ds_{block M[0]}."""
    factor = Fraction((-1) ** k, s + 1)
    out = Form.zero(ctx)
    for (block, Ms), val in chi.items():
        for M in set(itertools.permutations(Ms)):
            target = ds_block(ctx, block + (M[0],))
            if target.is_zero():
                continue
            piece = total_derivative_form_multi(val, M[1:])
            out = out + wedge(piece, target).scale(factor)
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 16), n=st.integers(1, 4), m=st.integers(1, 2),
       k=st.integers(1, 3), r=st.integers(0, 2),
       weight=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]),
       opaque_order=st.sampled_from([None, 0, 1, 2]))
def test_integer_telescope_matches_the_ordered_fraction_reference(data, seed, n, m, k, r,
                                                                  weight, opaque_order):
    s = data.draw(st.integers(0, n), label="s")
    ctx = Context(n=n, m=m)
    factor = se.rational(weight)
    if opaque_order is not None:
        factor = factor * se.opaque("F", n=n, m=m, order=opaque_order)
    rho = rand_form(random.Random(seed), ctx, n - s, k, r).scale(factor)
    assume(not p_k(rho, k).is_zero())
    _assert_matches_reference(rho, k)


def test_integer_telescope_matches_the_reference_on_the_degree_grid():
    """Every contact degree 1-3 and codegree at n <= 4, jet order <= 3."""
    checked = 0
    for rho in degree_grid(0):
        k = rho.contact_degree()
        if k:
            _assert_matches_reference(rho, k)
            checked += 1
    assert checked > 60


def test_order_three_opaque_density_matches_the_reference():
    # eta^J reaches |J| = 3, so the telescope, the rebuild and the residual
    # carry formal chains D_I F of depth 3 until they expand
    ctx = Context(n=2, m=1)
    rho = d_C(volume(ctx).scale(se.opaque("F", n=2, m=1, order=3)))
    fam = ibp_expand(rho, 1)
    assert {len(a.key[2]) for a in formal_atoms(fam.int_xi.values())} == {1, 2, 3}
    _assert_matches_reference(rho, 1)


def _assert_matches_reference(rho: Form, k: int) -> None:
    xi, chi, s_read = reference_xi_chi(rho, k)
    fam = ibp_expand(rho, k)
    assert fam.xi == xi
    assert chi_table(fam) == chi
    assert residual(rho, k) == reference_residual(rho.ctx, k, s_read, chi)
