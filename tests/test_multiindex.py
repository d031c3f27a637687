import itertools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from jetform.forms import Context, Form, _bit, _insert
from jetform.multiindex import sort_with_sign, tuple_multiplicity
from jetform.printers import _cov_key
from jetform.symexpr import Scalar
from form_oracles import signed_lookup, tuple_terms
from splitting_oracles import signed_permutations


def test_tuple_multiplicity():
    assert tuple_multiplicity((1, 2)) == 2
    assert tuple_multiplicity((1, 1)) == 1
    assert tuple_multiplicity((1, 2, 3)) == 6
    assert tuple_multiplicity(()) == 1


@given(st.lists(st.integers(1, 3), max_size=5))
def test_multiplicity_counts_orderings(J):
    J = tuple(sorted(J))
    assert tuple_multiplicity(J) == len(set(itertools.permutations(J)))


def test_sort_with_sign():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 2)) == ((2, 2), 0)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)


@given(st.lists(st.integers(-50, 50), unique=True, max_size=7))
def test_sort_with_sign_is_inversion_parity(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    assert sort_with_sign(perm) == (tuple(sorted(perm)), (-1) ** inversions)


_COVECTOR = st.one_of(
    st.builds(lambda i: ('dx', i), st.integers(1, 3)),
    st.builds(lambda sigma, J: ('w', sigma, tuple(sorted(J))),
              st.integers(1, 2), st.lists(st.integers(1, 3), max_size=2)))


@given(st.lists(_COVECTOR, unique=True, max_size=6))
def test_sort_with_sign_orders_covectors_dx_first(covs):
    wedge, sign = sort_with_sign(covs, _cov_key)
    assert list(wedge) == sorted(covs, key=_cov_key)
    kinds = [cov[0] for cov in wedge]
    assert kinds == ['dx'] * kinds.count('dx') + ['w'] * kinds.count('w')
    positions = [wedge.index(cov) for cov in covs]
    inversions = sum(1 for a, b in itertools.combinations(positions, 2) if a > b)
    assert sign == (-1) ** inversions


@given(st.lists(_COVECTOR, min_size=1, max_size=5), st.integers(0, 5))
def test_sort_with_sign_repeated_covector_is_zero(covs, at):
    covs.insert(min(at, len(covs)), covs[0])
    assert sort_with_sign(covs, _cov_key)[1] == 0


_N3M2 = Context(n=3, m=2)


@given(st.lists(_COVECTOR, unique=True, max_size=6), _COVECTOR)
def test_insert_is_sort_with_sign_of_the_prepended_covector(covs, cov):
    # the wedge w in printed order, as a mask: its decode is w itself
    w = tuple(sorted(covs, key=_cov_key))
    [(mask, c)] = Form.from_terms(_N3M2, [(w, Scalar.one())]).terms.items()
    assert tuple_terms(Form(_N3M2, {mask: c})) == {w: Scalar.one()}
    got, sign = _insert(_bit(cov), mask)
    want, want_sign = sort_with_sign((cov,) + w, _cov_key)
    assert (sign == 0) == (want_sign == 0)
    if sign:
        assert tuple_terms(Form(_N3M2, {got: c * sign})) == {want: Scalar.from_fraction(want_sign)}


@given(st.lists(_COVECTOR, unique=True, min_size=1, max_size=6), st.integers(0, 5))
def test_insert_of_a_repeated_covector_is_zero(covs, at):
    w = tuple(sorted(covs, key=_cov_key))
    cov = w[min(at, len(w) - 1)]
    mask = sum(map(_bit, w))
    assert _insert(_bit(cov), mask)[1] == sort_with_sign((cov,) + w, _cov_key)[1] == 0


@given(st.lists(st.integers(1, 4), max_size=5))
def test_signed_permutations_yields_every_ordering(seq):
    out = list(signed_permutations(seq))
    assert len(out) == math.factorial(len(seq))
    assert sorted(a for a, _ in out) == sorted(itertools.permutations(seq))
    assert sum(sign for _, sign in out) == (1 if len(seq) < 2 else 0)


def _project(T, positions, signed):
    """1/k! times the (signed) sum over orderings of the given key positions."""
    weight = Fraction(1, math.factorial(len(positions)))
    out = {}
    for idx, v in T.items():
        for arranged, sign in signed_permutations(idx[p] for p in positions):
            key = list(idx)
            for p, val in zip(positions, arranged):
                key[p] = val
            key = tuple(key)
            out[key] = out.get(key, 0) + (sign if signed else 1) * weight * v
    return {key: v for key, v in out.items() if v}


def _rand_tensor(rng, n, rank):
    return {idx: Fraction(rng.randint(-4, 4))
            for idx in itertools.product(range(1, n + 1), repeat=rank)}


def test_antisymmetrize_of_symmetric_block_is_zero():
    T = {(i, j): i + j for i in range(1, 3) for j in range(1, 3)}
    assert _project(T, (0, 1), signed=True) == {}


def test_antisymmetrize_two_term_example():
    A = _project({(1, 2): 1}, (0, 1), signed=True)
    assert A == {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}


def test_projectors_idempotent_and_complementary():
    rng = random.Random(3)
    for rank, block in [(2, (0, 1)), (3, (0, 2)), (3, (0, 1, 2))]:
        T = _rand_tensor(rng, 3, rank)
        A = _project(T, block, signed=True)
        S = _project(T, block, signed=False)
        assert _project(A, block, signed=True) == A
        assert _project(S, block, signed=False) == S
        assert _project(A, block, signed=False) == {}
        if len(block) == 2:
            total = {key: A.get(key, 0) + S.get(key, 0) for key in T}
            assert {key: v for key, v in total.items() if v} == \
                {key: v for key, v in T.items() if v}


def test_da_proof_contraction_identity():
    # (A^{(ij1)j2} - A^{(ij1j2)}) against a (j1 j2)-symmetric slot matches
    # (1/3) A^{[ij1]j2} against the same slot, for A symmetric in its last
    # two indices (the rank-string symmetry of morphism coefficients); this
    # is the lemma behind the 2/3 weights of the rank-2 codegree-1 splitting
    rng = random.Random(5)
    n = 3
    T = _project(_rand_tensor(rng, n, 3), (1, 2), signed=False)
    S = {key: rng.randint(-3, 3)
         for key in itertools.combinations_with_replacement(range(1, n + 1), 2)}

    def s_at(j1, j2):
        return S[tuple(sorted((j1, j2)))]

    sym2 = _project(T, (0, 1), signed=False)
    sym3 = _project(T, (0, 1, 2), signed=False)
    anti2 = _project(T, (0, 1), signed=True)
    for i in range(1, n + 1):
        lhs = rhs = 0
        for j1 in range(1, n + 1):
            for j2 in range(1, n + 1):
                key = (i, j1, j2)
                lhs += (sym2.get(key, 0) - sym3.get(key, 0)) * s_at(j1, j2)
                rhs += anti2.get(key, 0) * s_at(j1, j2) * Fraction(1, 3)
        assert lhs == rhs


def test_ordered_sum_equals_multiplicity_weighted_sorted_sum():
    rng = random.Random(9)
    n, k = 3, 3
    vals = {key: rng.randint(-5, 5)
            for key in itertools.combinations_with_replacement(range(1, n + 1), k)}
    f = lambda J: vals[tuple(sorted(J))]  # symmetric function of the tuple
    ordered = sum(f(J) for J in itertools.product(range(1, n + 1), repeat=k))
    weighted = sum(tuple_multiplicity(J) * f(J) for J in vals)
    assert ordered == weighted


def test_signed_lookup_convention_via_sort():
    block, sign = sort_with_sign((3, 1))
    assert (block, sign) == ((1, 3), -1)
    assert sort_with_sign((1, 0, 2))[1] == -1
    table = {((1, 3), 'a'): 5}
    assert signed_lookup(table, (3, 1), ('a',), 0) == -5
    assert signed_lookup(table, (1, 3), ('a',), 0) == 5
    assert signed_lookup(table, (1, 1), ('a',), 0) == 0
    assert signed_lookup(table, (1, 2), ('a',), 0) == 0
