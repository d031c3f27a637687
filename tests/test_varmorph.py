import itertools
import random
from fractions import Fraction

import pytest

from jetform import symexpr as se
from jetform import varmorph
from jetform.forms import (Context, contract_prolonged, d_H, ds_block, dx,
                           omega, p_k, volume, wedge)
from jetform.interior_euler import interior_euler, residual
from jetform.randomgen import generic_morphism, rand_morphism, rand_scalar
from jetform.symexpr import Scalar
from jetform.varmorph import (NotOneContact, VariationalMorphism,
                              alpha_discrepancy, divergence, formal_field,
                              from_contact_form, split_canonical_codegree_s,
                              _pairing_sum, split_like, to_contact_form,
                              vertical_field)
from jetform.verify import _alpha_display, run_identity
from form_oracles import split_lower
from fraction_ops import fraction_ops
from splitting_oracles import (antisym_value, canonical_rank1,
                               canonical_rank2_codegree1, is_reduced,
                               is_reduced_grid, split_like_grid)


# -- the form <-> morphism correspondence ------------------------------------------

def test_from_contact_form_simple():
    ctx = Context(n=2, m=1)
    V = from_contact_form(wedge(omega(ctx, 1), volume(ctx)))
    assert V.s == 0
    assert V.value((), 1, ()) == Scalar.one()


def test_from_contact_form_reads_first_order_coefficient():
    ctx = Context(n=1, m=1)
    rho = wedge(omega(ctx, 1, 1), dx(ctx, 1)).scale(se.y(1, 1))
    V = from_contact_form(rho)
    assert V.s == 0
    assert V.value((), 1, (1,)) == se.y(1, 1)


def test_from_contact_form_rejects_two_contact():
    ctx = Context(n=2, m=2)
    rho = wedge(omega(ctx, 1), omega(ctx, 2))
    with pytest.raises(NotOneContact):
        from_contact_form(rho)


def test_roundtrip_and_evaluation_contract():
    rng = random.Random(31)
    for (n, m, s, r) in [(1, 1, 0, 2), (2, 2, 0, 1), (2, 1, 1, 1), (3, 2, 1, 2)]:
        ctx = Context(n=n, m=m)
        V = rand_morphism(rng, ctx, s, r)
        rho = to_contact_form(V)
        xi = vertical_field(ctx)
        # <V|J^r Xi> = J^r Xi _| p_1 rho
        assert V.evaluate(xi) == contract_prolonged(p_k(rho, 1), xi)
        V2 = from_contact_form(rho)
        assert V2.evaluate(xi) == V.evaluate(xi)


def test_form_level_roundtrip_recovers_p1():
    from jetform.randomgen import rand_form
    rng = random.Random(38)
    for (n, m, s) in [(2, 1, 0), (2, 2, 1), (3, 1, 1), (3, 2, 2), (2, 1, 2), (4, 1, 3)]:
        ctx = Context(n=n, m=m)
        rho = rand_form(rng, ctx, n - s, 1, 2)
        assert to_contact_form(from_contact_form(rho)) == p_k(rho, 1)
        # a 0-contact part of the same horizontal degree is left out
        rho0 = rand_form(rng, ctx, n - s, 0, 2)
        assert to_contact_form(from_contact_form(rho + rho0)) == p_k(rho, 1)


def test_evaluation_identity_with_polynomial_field():
    # splitting identities hold for concrete polynomial sections too
    rng = random.Random(39)
    ctx = Context(n=2, m=2)
    from jetform.randomgen import rand_scalar
    xi = {sigma: rand_scalar(rng, ctx, 0, degree=2, terms=2)
          for sigma in range(1, 3)}
    V0 = rand_morphism(rng, ctx, 0, 2)
    res0 = split_like(V0)
    assert V0.evaluate(xi) == res0.volume.evaluate(xi) + d_H(res0.boundary.evaluate(xi))
    V1 = rand_morphism(rng, ctx, 1, 2)
    res1 = split_like(V1)
    assert V1.evaluate(xi) == res1.volume.evaluate(xi) + d_H(res1.boundary.evaluate(xi))
    canon = split_canonical_codegree_s(V1)
    assert V1.evaluate(xi) == canon.volume.evaluate(xi) + d_H(canon.boundary.evaluate(xi))


def test_boundary_sign_convention():
    ctx = Context(n=2, m=1)
    T = VariationalMorphism.of(ctx, 1, {((1,), 1, ()): Scalar.one()})
    rt = -to_contact_form(T)
    assert rt == wedge(omega(ctx, 1), ds_block(ctx, (1,))).scale(-1)


def test_prop_boundary_div_correspondence():
    # Div(<T|J^{r-1}Xi>) = J^r Xi _| d_H of the minus-signed associated form
    rng = random.Random(32)
    ctx = Context(n=2, m=2)
    T = rand_morphism(rng, ctx, 1, 1)
    xi = vertical_field(ctx)
    lhs = d_H(T.evaluate(xi))
    rt = -to_contact_form(T)
    rhs = contract_prolonged(d_H(rt), xi)
    assert (lhs - rhs).is_zero()


def test_zero_morphism_is_zero_form():
    ctx = Context(n=2, m=1)
    assert to_contact_form(VariationalMorphism(ctx, 1)).is_zero()


# -- codegree 0 --------------------------------------------------------------------

def test_split0_rank0_trivial():
    ctx = Context(n=2, m=1)
    V = VariationalMorphism.of(ctx, 0, {((), 1, ()): se.y(1)})
    res = split_like(V)
    assert res.volume.coeffs == V.coeffs
    assert res.boundary.is_zero()


def test_split0_rank1_and_rank2_coefficients():
    ctx = Context(n=2, m=1)
    V = generic_morphism(ctx, 0, 2)
    res = split_like(V)
    d = se.total_derivative
    # E = A - d_j A^j + d_jk A^jk
    expect = V.value((), 1, ())
    for j in range(1, 3):
        expect = expect - d(V.value((), 1, (j,)), j)
    for j in range(1, 3):
        for k in range(1, 3):
            expect = expect + d(d(V.value((), 1, (j, k)), k), j)
    assert res.volume.value((), 1, ()) == expect
    # t^{ij} = A^{ij}; t^i = A^i - d_l t^{li}
    for i in range(1, 3):
        for j in range(1, 3):
            assert res.boundary.value((i,), 1, (j,)) == V.value((), 1, (i, j))
        expect_t = V.value((), 1, (i,))
        for l in range(1, 3):
            expect_t = expect_t - d(V.value((), 1, (l, i)), l)
        assert res.boundary.value((i,), 1, ()) == expect_t


def test_split0_evaluation_and_prop_volume():
    rng = random.Random(33)
    for (n, m, r) in [(1, 1, 2), (2, 2, 1), (2, 1, 2)]:
        ctx = Context(n=n, m=m)
        V = rand_morphism(rng, ctx, 0, r)
        res = split_like(V)
        xi = vertical_field(ctx)
        lhs = V.evaluate(xi)
        assert lhs == res.volume.evaluate(xi) + d_H(res.boundary.evaluate(xi))
        rho = to_contact_form(V)
        assert res.volume.evaluate(xi) == contract_prolonged(interior_euler(rho, 1), xi)
        assert d_H(res.boundary.evaluate(xi)) == \
            contract_prolonged(d_H(residual(rho, 1)), xi)


def test_split_rank0_volume_is_a_copy_of_the_input():
    # the volume part of a rank-0 split has V's coefficients, in its own dict
    ctx = Context(n=3, m=1)
    for s, block in [(0, ()), (1, (2,)), (2, (1, 3))]:
        V = VariationalMorphism.of(ctx, s, {(block, 1, ()): se.y(1) * se.y(1, 2)})
        res = split_canonical_codegree_s(V)
        assert res.volume is not V and res.volume.coeffs == V.coeffs
        assert res.boundary.is_zero()
        assert res.volume.acc is not V.acc


# -- split-like --------------------------------------------------------------------

def test_split_like_evaluation_identity():
    for (n, m, s, r) in [(2, 1, 1, 1), (3, 1, 1, 2), (2, 2, 1, 2), (3, 1, 2, 1)]:
        ctx = Context(n=n, m=m)
        V = generic_morphism(ctx, s, r)
        res = split_like(V)
        xi = formal_field(ctx)
        assert (V.evaluate(xi)
                - res.volume.evaluate(xi) - d_H(res.boundary.evaluate(xi))).is_zero()


def test_split_like_r1_closed_formulas():
    # E': (A^B - d_k A^{[Bk]}) and (A^{Bj} - A^{[Bj]}); T': 1/(s+1) A^{[Bi]}
    ctx = Context(n=3, m=1)
    V = generic_morphism(ctx, 1, 1)
    res = split_like(V)
    d = se.total_derivative
    for i in range(1, 4):
        expect0 = V.value((i,), 1, ())
        for k in range(1, 4):
            expect0 = expect0 - d(antisym_value(V, (i, k), 1, ()), k)
        assert res.volume.value((i,), 1, ()) == expect0
        for j in range(1, 4):
            expect1 = V.value((i,), 1, (j,)) - antisym_value(V, (i, j), 1, ())
            assert res.volume.value((i,), 1, (j,)) == expect1
    for block in itertools.combinations(range(1, 4), 2):
        assert res.boundary.value(block, 1, ()) == \
            antisym_value(V, block, 1, ()) * Fraction(1, 2)


def test_split_like_antisymmetric_input_has_no_middle_corrections():
    # fully block-antisymmetric rank-1 input: E' loses its rank-1 part
    ctx = Context(n=3, m=1)
    coeffs = {}
    base = {}
    for i in range(1, 4):
        for j in range(1, 4):
            key = tuple(sorted((i, j)))
            if i == j:
                continue
            if key not in base:
                base[key] = se.opaque("C", key, n=3, m=1, order=-1)
            coeffs[(i,), 1, (j,)] = base[key] if (i, j) == key else -base[key]
    res = split_like(VariationalMorphism.of(ctx, 1, coeffs))
    for i in range(1, 4):
        for j in range(1, 4):
            assert res.volume.value((i,), 1, (j,)).is_zero()


def test_split_like_r2_s1_volume_display():
    # E' = (A^i - d_a A^{[ia]} + d_b d_a A^{[ib]a}) w
    #    + (A^{ij1} - d_a A^{[ia]j1} - A^{[ij1]} + d_a A^{[ij1]a}) w_{j1}
    #    + (A^{ij1j2} - A^{[ij1]j2}) w_{j1j2},  all against ds_i
    ctx = Context(n=2, m=1)
    V = generic_morphism(ctx, 1, 2)
    res = split_like(V)
    d = se.total_derivative
    for i in range(1, 3):
        expect = V.value((i,), 1, ())
        for a in range(1, 3):
            expect = expect - d(antisym_value(V, (i, a), 1, ()), a)
        for a in range(1, 3):
            for b in range(1, 3):
                expect = expect + d(d(antisym_value(V, (i, b), 1, (a,)), a), b)
        assert res.volume.value((i,), 1, ()) == expect
        for j1 in range(1, 3):
            expect = V.value((i,), 1, (j1,)) - antisym_value(V, (i, j1), 1, ())
            for a in range(1, 3):
                expect = expect - d(antisym_value(V, (i, a), 1, (j1,)), a)
                expect = expect + d(antisym_value(V, (i, j1), 1, (a,)), a)
            assert res.volume.value((i,), 1, (j1,)) == expect
            for j2 in range(1, 3):
                expect = V.value((i,), 1, (j1, j2)) - antisym_value(V, (i, j1), 1, (j2,))
                assert res.volume.value((i,), 1, (j1, j2)) == expect


def test_split_like_agrees_with_form_level_split():
    # the morphism-level split-like volume/boundary pair corresponds to the
    # source + middle / boundary pieces of the form-level decomposition
    rng = random.Random(40)
    for (n, m, s, r) in [(2, 1, 1, 1), (2, 2, 1, 2), (3, 1, 1, 2), (3, 1, 2, 1)]:
        ctx = Context(n=n, m=m)
        V = rand_morphism(rng, ctx, s, r)
        rho = to_contact_form(V)
        source, middle, boundary = split_lower(rho)
        res = split_like(V)
        xi = vertical_field(ctx)
        assert res.volume.evaluate(xi) == contract_prolonged(source + middle, xi)
        assert d_H(res.boundary.evaluate(xi)) == contract_prolonged(boundary, xi)


def _sparse_morphism(rng, ctx, s, r, count=6):
    """A few coefficients at random (block, sigma, ordered J): not symmetric."""
    coeffs = {}
    for _ in range(count):
        block = tuple(sorted(rng.sample(range(1, ctx.n + 1), s)))
        J = tuple(rng.randint(1, ctx.n) for _ in range(rng.randint(0, r)))
        key = (block, rng.randint(1, ctx.m), J)
        coeffs[key] = coeffs.get(key, Scalar.zero()) + rand_scalar(rng, ctx, 1, degree=2,
                                                                   terms=2)
    return VariationalMorphism.of(ctx, s, coeffs)


@pytest.mark.parametrize("n,m,s,r", [(2, 1, 0, 2), (3, 2, 0, 3), (2, 2, 1, 0),
                                     (2, 1, 1, 3), (3, 1, 2, 2), (3, 2, 1, 2),
                                     (4, 1, 3, 1), (4, 1, 1, 2)])
def test_splittings_read_off_stored_coefficients_match_the_grid_walks(n, m, s, r):
    # the scatters give the grid walk's coefficients exactly, on generic,
    # dense random and sparse non-symmetric inputs, and on the non-symmetric
    # split-like volume part fed back in
    rng = random.Random(45)
    ctx = Context(n=n, m=m)
    inputs = [generic_morphism(ctx, s, r), rand_morphism(rng, ctx, s, r),
              _sparse_morphism(rng, ctx, s, r)]
    inputs.append(split_like(inputs[0]).volume)
    for V in inputs:
        like, grid = split_like(V), split_like_grid(V)
        assert like.volume.coeffs == grid.volume.coeffs
        assert like.boundary.coeffs == grid.boundary.coeffs
        canon = split_canonical_codegree_s(V)
        for W in (V, like.volume, like.boundary, canon.volume, canon.boundary):
            assert is_reduced(W) == is_reduced_grid(W)
        if s:  # the canonical parts are reduced on non-symmetric input too
            assert is_reduced(canon.volume) and is_reduced(canon.boundary)
            xi = formal_field(ctx)
            assert (V.evaluate(xi) - canon.volume.evaluate(xi)
                    - d_H(canon.boundary.evaluate(xi))).is_zero()


def test_is_reduced_is_false_on_a_non_reduced_rank1_morphism():
    ctx = Context(n=2, m=1)
    assert not is_reduced(VariationalMorphism.of(ctx, 1, {((1,), 1, (2,)): se.y(1)}))


def test_is_reduced_reads_every_rank():
    # the rank-1 part is symmetric in (block, J[0]), so reduced; a rank-2
    # coefficient with no partner at the swapped position is not
    ctx = Context(n=2, m=1)
    rank1 = {((1,), 1, (2,)): se.y(1), ((2,), 1, (1,)): se.y(1)}
    assert is_reduced(VariationalMorphism.of(ctx, 1, rank1))
    assert not is_reduced(VariationalMorphism.of(ctx, 1, {**rank1, ((1,), 1, (2, 1)): se.x(2)}))


def test_is_reduced_holds_for_rank0_coefficients():
    ctx = Context(n=3, m=2)
    for s, block in [(0, ()), (1, (2,)), (2, (1, 3))]:
        assert is_reduced(VariationalMorphism.of(ctx, s, {(block, 2, ()): se.y(1, 2) * se.x(1)}))


# -- Prop r=1 ----------------------------------------------------------------------

def test_prop_r1_splittings_coincide():
    rng = random.Random(34)
    for (n, m, s) in [(2, 1, 1), (3, 2, 1), (3, 1, 2)]:
        ctx = Context(n=n, m=m)
        for V in [generic_morphism(ctx, s, 1), rand_morphism(rng, ctx, s, 1)]:
            like = split_like(V)
            canon = split_canonical_codegree_s(V)
            assert (like.volume - canon.volume).is_zero()
            assert (like.boundary - canon.boundary).is_zero()


# -- canonical r=2, s=1 --------------------------------------------------------------

def test_splittfati_identity_and_displayed_coefficients():
    ctx = Context(n=2, m=1)
    V = generic_morphism(ctx, 1, 2)
    canon = split_canonical_codegree_s(V)
    xi = formal_field(ctx)
    assert (V.evaluate(xi) - canon.volume.evaluate(xi)
            - d_H(canon.boundary.evaluate(xi))).is_zero()
    d = se.total_derivative
    # T: 1/2 (A^{[i1i2]} - 2/3 d_a A^{[i1i2]a}) and 1/2 * 4/3 A^{[i1i2]j}
    for block in itertools.combinations(range(1, 3), 2):
        expect0 = antisym_value(V, block, 1, ())
        for a in range(1, 3):
            expect0 = expect0 - Fraction(2, 3) * d(antisym_value(V, block, 1, (a,)), a)
        assert canon.boundary.value(block, 1, ()) == expect0 * Fraction(1, 2)
        for j in range(1, 3):
            assert canon.boundary.value(block, 1, (j,)) == \
                antisym_value(V, block, 1, (j,)) * Fraction(2, 3)
    # E rank-2 term: the full symmetrization A^{(i j1 j2)}
    for i in range(1, 3):
        for j1 in range(1, 3):
            for j2 in range(1, 3):
                total = Scalar.zero()
                for p in itertools.permutations((i, j1, j2)):
                    total = total + V.value((p[0],), 1, (p[1], p[2]))
                assert canon.volume.value((i,), 1, (j1, j2)) == total * Fraction(1, 6)
    # E is reduced, T is reduced
    assert is_reduced(canon.volume)
    assert is_reduced(canon.boundary)


def test_splittfati_symmetric_input_kills_boundary_rank1():
    ctx = Context(n=2, m=1)
    coeffs = {}
    for i in range(1, 3):
        for Js in itertools.product(range(1, 3), repeat=2):
            key = tuple(sorted((i,) + Js))
            coeffs[(i,), 1, Js] = se.opaque("S", key, n=2, m=1, order=-1)
    canon = split_canonical_codegree_s(VariationalMorphism.of(ctx, 1, coeffs))
    for block in itertools.combinations(range(1, 3), 2):
        for j in range(1, 3):
            assert canon.boundary.value(block, 1, (j,)).is_zero()


@pytest.mark.parametrize("n,m,r,s", [(3, 1, 2, 2), (3, 1, 3, 1), (4, 1, 2, 2),
                                     (3, 2, 2, 2)])
def test_canonical_splitting_at_higher_rank_and_codegree(n, m, r, s):
    # the top-down construction covers (rank, codegree) pairs that no hand
    # formula reaches: the identity holds exactly and both parts are reduced
    rng = random.Random(41)
    ctx = Context(n=n, m=m)
    xi = formal_field(ctx)
    for V in [generic_morphism(ctx, s, r), rand_morphism(rng, ctx, s, r)]:
        canon = split_canonical_codegree_s(V)
        assert (V.evaluate(xi) - canon.volume.evaluate(xi)
                - d_H(canon.boundary.evaluate(xi))).is_zero()
        assert is_reduced(canon.volume)
        assert is_reduced(canon.boundary)
        assert not canon.boundary.is_zero()


@pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (1, 3), (2, 1)])
def test_canonical_splitting_matches_the_hand_formulas(r, s):
    oracle = canonical_rank1 if r == 1 else canonical_rank2_codegree1
    rng = random.Random(42)
    for n in range(max(s, 1), 5):
        for m in (1, 2):
            ctx = Context(n=n, m=m)
            for V in [generic_morphism(ctx, s, r), rand_morphism(rng, ctx, s, r)]:
                canon, hand = split_canonical_codegree_s(V), oracle(V)
                assert canon.volume.coeffs == hand.volume.coeffs, (n, m)
                assert canon.boundary.coeffs == hand.boundary.coeffs, (n, m)


# -- divergence -----------------------------------------------------------------------

def test_divergence_constant_coefficients():
    ctx = Context(n=2, m=1)
    Q0 = VariationalMorphism.of(ctx, 1, {((1,), 1, ()): se.x(2)})  # depends on base only
    # a Q not symmetric in its rank strings pairs to Div all the same
    Qa = VariationalMorphism.of(Context(n=3, m=1), 1, {((2,), 1, (1, 3)): se.y(1, 2),
                                                      ((1,), 1, (3,)): se.x(2)})
    symmetric = [Q0, generic_morphism(ctx, 1, 1), generic_morphism(ctx, 1, 2, order=1),
                 generic_morphism(Context(n=3, m=2), 2, 1)]
    for Q in symmetric + [Qa]:
        D = divergence(Q)
        assert D.s == Q.s - 1
        xi = formal_field(Q.ctx)
        assert D.evaluate(xi) == d_H(Q.evaluate(xi))
        if Q is not Qa:  # the result is symmetric in its rank strings when Q is
            for (block, sigma, J), v in D.coeffs.items():
                for Jord in itertools.permutations(J):
                    assert D.value(block, sigma, Jord) == v


def test_divergence_squared_through_forms_is_zero():
    rng = random.Random(35)
    ctx = Context(n=3, m=2)
    Q = rand_morphism(rng, ctx, 2, 0)
    xi = formal_field(ctx)
    once = d_H(Q.evaluate(xi))
    assert d_H(once).is_zero()
    for (n, m, s, r) in [(3, 2, 2, 0), (3, 2, 2, 2), (4, 1, 3, 1)]:
        Q = rand_morphism(rng, Context(n=n, m=m), s, r)
        assert divergence(divergence(Q)).is_zero()


# -- Prop Da ----------------------------------------------------------------------------

def test_alpha_displayed_coefficients_and_lepage_identities():
    rng = random.Random(37)
    for (n, m) in [(2, 1), (3, 2), (2, 2)]:
        ctx = Context(n=n, m=m)
        for V in [generic_morphism(ctx, 1, 2, order=-1),
                  rand_morphism(rng, ctx, 1, 2)]:
            like = split_like(V)
            canon = split_canonical_codegree_s(V)
            alpha, dalpha = alpha_discrepancy(V)
            xi = formal_field(ctx)
            # eq:Lepage
            assert (like.boundary - (canon.boundary + alpha)).is_zero()
            assert (like.volume.evaluate(xi)
                    - canon.volume.evaluate(xi) + dalpha.evaluate(xi)).is_zero()
            # displayed alpha: -1/6 d_a A^{[i1i2]a} and -1/6 A^{[i1i2]a}, for
            # the library's alpha and for the literal display of verify prop-da
            display = _alpha_display(V)
            for block in itertools.combinations(range(1, n + 1), 2):
                for sigma in range(1, m + 1):
                    acc = Scalar.zero()
                    for a in range(1, n + 1):
                        acc = acc + se.total_derivative(
                            antisym_value(V, block, sigma, (a,)), a)
                    assert alpha.value(block, sigma, ()) == acc * Fraction(-1, 6)
                    assert display.value(block, sigma, ()) == acc * Fraction(-1, 6)
                    for a in range(1, n + 1):
                        want = antisym_value(V, block, sigma, (a,)) * Fraction(-1, 6)
                        assert alpha.value(block, sigma, (a,)) == want
                        assert display.value(block, sigma, (a,)) == want
            # -D(alpha) leading coefficient: 1/3 d_b d_a A^{[ib]a}
            for i in range(1, n + 1):
                for sigma in range(1, m + 1):
                    acc = Scalar.zero()
                    for a in range(1, n + 1):
                        for b in range(1, n + 1):
                            acc = acc + se.total_derivative(se.total_derivative(
                                antisym_value(V, (i, b), sigma, (a,)), a), b)
                    assert dalpha.value((i,), sigma, ()) == acc * Fraction(-1, 3)


def test_alpha_vanishes_for_fully_symmetric_coefficients():
    ctx = Context(n=2, m=1)
    coeffs = {}
    for i in range(1, 3):
        for h in range(3):
            for Js in itertools.product(range(1, 3), repeat=h):
                key = tuple(sorted((i,) + Js))
                coeffs[(i,), 1, Js] = se.opaque("S", (h,) + key, n=2, m=1, order=-1)
    alpha, dalpha = alpha_discrepancy(VariationalMorphism.of(ctx, 1, coeffs))
    assert alpha.is_zero()
    assert dalpha.is_zero()


def test_alpha_vanishes_at_codegree_zero():
    # at codegree 0 the canonical splitting is the split-like one
    rng = random.Random(43)
    for (n, m, r) in [(2, 1, 2), (3, 2, 2), (2, 1, 3)]:
        ctx = Context(n=n, m=m)
        for V in [generic_morphism(ctx, 0, r), rand_morphism(rng, ctx, 0, r)]:
            alpha, dalpha = alpha_discrepancy(V)
            assert alpha.s == 1 and dalpha.s == 0
            assert alpha.is_zero()
            assert dalpha.is_zero()


def test_alpha_lepage_identities_at_rank3():
    # eq:Lepage beyond the rank-2 hand formulas: T' = T + alpha, E' = E - D(alpha)
    rng = random.Random(44)
    ctx = Context(n=2, m=1)
    xi = formal_field(ctx)
    for V in [generic_morphism(ctx, 1, 3), rand_morphism(rng, ctx, 1, 3)]:
        like = split_like(V)
        canon = split_canonical_codegree_s(V)
        alpha, dalpha = alpha_discrepancy(V)
        assert not alpha.is_zero()
        assert (like.boundary - (canon.boundary + alpha)).is_zero()
        assert (like.volume.evaluate(xi)
                - canon.volume.evaluate(xi) + dalpha.evaluate(xi)).is_zero()
        assert dalpha.evaluate(xi) == d_H(alpha.evaluate(xi))


# -- memo scopes and the integer pipeline ---------------------------------------------

@pytest.mark.parametrize("call", [
    split_like, split_canonical_codegree_s, alpha_discrepancy,
    pytest.param(lambda V: run_identity("prop-da", 0, n=V.ctx.n, m=V.ctx.m),
                 id="run_identity")])
def test_splittings_build_each_chain_rule_once(monkeypatch, call):
    # each entry point is one memo scope, so a chain rule built for one
    # total derivative serves every later one of the call
    keys = []
    build = se._chain_rule

    def spy(atom, i, derived):
        keys.append((atom, i))
        return build(atom, i, derived)

    monkeypatch.setattr(se, "_chain_rule", spy)
    call(generic_morphism(Context(n=3, m=1), 1, 2, order=1))
    assert keys and len(keys) == len(set(keys))
    assert se._derived is None


def test_cli_morphism_path_clears_once_and_divides_once_per_part():
    # jetform split|splitlike|alpha: the parsed form is cleared once, the
    # splittings and alpha run on that clearing, and each printed part is
    # divided once: no Fraction arithmetic at all, and one Fraction made per
    # distinct coefficient of a part that is not whole
    rho = to_contact_form(rand_morphism(random.Random(7), Context(n=3, m=2), 1, 2))
    assert any(type(c) is Fraction for v in rho.terms.values() for c in v.terms.values())
    parts = []
    with fraction_ops() as ops:
        for split in (split_canonical_codegree_s, split_like):
            res = split(from_contact_form(rho))
            parts += [to_contact_form(res.volume), to_contact_form(res.boundary)]
        parts += map(to_contact_form, alpha_discrepancy(from_contact_form(rho)))
    made = ops.pop("__new__")
    # 181 made when each public boundary divided and cleared again, for 80 here
    assert sum(ops.values()) == 0
    assert made == sum(len({c for v in part.terms.values() for c in v.terms.values()
                            if type(c) is Fraction}) for part in parts) > 0


def _buckets(V):
    return {key: dict(t) for key, t in V.acc.items()}


def test_operations_leave_their_inputs_acc_unchanged():
    # a stored bucket is never mutated, though the split parts and sums may
    # share buckets with their inputs (from_contact_form stores one bucket
    # at every ordering of J)
    rng = random.Random(46)
    ctx = Context(n=3, m=2)
    for V in [from_contact_form(to_contact_form(rand_morphism(rng, ctx, 1, 2))),
              rand_morphism(rng, ctx, 1, 0), _sparse_morphism(rng, ctx, 1, 2),
              from_contact_form(to_contact_form(rand_morphism(rng, ctx, 0, 2)))]:
        W = rand_morphism(rng, ctx, V.s, 2)
        before = _buckets(V), _buckets(W)
        for op in (split_canonical_codegree_s, split_like, alpha_discrepancy,
                   lambda V: (V + W, W + V), lambda V: (V - W, W - V)):
            op(V)
            assert (_buckets(V), _buckets(W)) == before, op


def test_equal_coefficients_at_different_scales_are_equal():
    rng = random.Random(47)
    ctx = Context(n=2, m=2)
    V = rand_morphism(rng, ctx, 1, 2)
    W = VariationalMorphism.of(ctx, 1, {((1,), 1, (2,)): Scalar.from_fraction(Fraction(1, 3))})
    assert W.scale % 3 == 0 and V.scale % 3
    assert V + V - V == V
    assert (V + W) - W == V and ((V + W) - W).scale != V.scale
    doubled = VariationalMorphism(ctx, 1, 2 * V.scale,
                                  {key: {m: 2 * v for m, v in t.items()} for key, t in V.acc.items()})
    assert doubled == V and doubled != V + W
    assert (V - V).is_zero() and V - V == VariationalMorphism(ctx, 1)


def test_alpha_display_runs_on_integers():
    # the display family is read off the integer buckets over 12 times the
    # scale of V: it makes no Fraction, and it is the displayed alpha
    V = rand_morphism(random.Random(7), Context(n=3, m=2), 1, 2)
    with fraction_ops() as ops:
        display = _alpha_display(V)
    assert sum(ops.values()) == 0
    assert display == alpha_discrepancy(V)[0]


def _count_products(monkeypatch) -> list:
    """A list that gains one entry per call of the product kernel."""
    products = []
    mul_into = se._mul_into

    def counted(*args):
        products.append(1)
        return mul_into(*args)

    for module in (se, varmorph):
        monkeypatch.setattr(module, "_mul_into", counted)
    return products


def test_pairing_multiplies_once_per_sorted_rank_string(monkeypatch):
    # d_J Xi is symmetric in J, so the orderings of a rank string are summed
    # first: one product per (block, sigma, sorted J), 10 per block and
    # field at n = 3, rank 2 (the 13 orderings would take 13)
    ctx = Context(n=3, m=1)
    V = generic_morphism(ctx, 1, 2)
    xi = formal_field(ctx)
    expected = V.evaluate(xi)
    products = _count_products(monkeypatch)
    assert V.evaluate(xi) == expected
    sorted_keys = {(block, sigma, tuple(sorted(J))) for block, sigma, J in V.coeffs}
    assert len(products) == len(sorted_keys) == 3 * 10


def test_a_cancelling_sum_of_pairings_takes_no_product(monkeypatch):
    # the pairing is linear in the morphism: the buckets of a difference are
    # summed before any product with d_J Xi, so one that cancels takes none
    ctx = Context(n=3, m=2)
    V = generic_morphism(ctx, 1, 2)
    like, canon = split_like(V), split_canonical_codegree_s(V)
    alpha = like.boundary - canon.boundary
    xi = formal_field(ctx)
    products = _count_products(monkeypatch)
    assert _pairing_sum(xi, [(like.boundary, 1), (canon.boundary, -1), (alpha, -1)]).is_zero()
    assert products == []
