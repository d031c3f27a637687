import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from jetform import symexpr as se
from jetform.symexpr import Scalar


def rand_expr(rng, n=2, m=2, order=2, degree=3, terms=3):
    coords = [('x', i) for i in range(1, n + 1)]
    for sigma in range(1, m + 1):
        from itertools import combinations_with_replacement
        for k in range(order + 1):
            for J in combinations_with_replacement(range(1, n + 1), k):
                coords.append(('y', sigma, J))
    out = Scalar.zero()
    for _ in range(terms):
        mono = se.rational(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        for _ in range(rng.randint(0, degree)):
            a = rng.choice(coords)
            mono = mono * (se.x(a[1]) if a[0] == 'x' else se.y(a[1], *a[2]))
        out = out + mono
    return out


# -- normal form ---------------------------------------------------------------

def test_sum_collapses():
    assert se.y(1) + se.y(1) == se.rational(2) * se.y(1)


def test_commutative_difference_is_zero():
    assert (se.y(1) * se.x(1) - se.x(1) * se.y(1)).is_zero()


def test_ring_identity():
    a, b = se.y(1, 1), se.y(1, 2)
    lhs = (a + b) ** 2 - a * a - se.rational(2) * a * b - b * b
    assert lhs.is_zero()


def test_e_minus_e_is_zero():
    rng = random.Random(8)
    for _ in range(20):
        e = rand_expr(rng)
        assert (e - e).is_zero()


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_ring_laws_on_random_small(a, b, c):
    x1, y1 = se.x(1), se.y(1)
    ea = se.rational(a) * x1 + se.rational(b) * y1
    eb = se.rational(c) * x1 * y1
    assert ea + eb == eb + ea
    assert ea * eb == eb * ea
    assert (ea * (eb + x1)) == ea * eb + ea * x1


def test_division_by_constant_and_errors():
    e = se.y(1) / se.rational(2)
    assert e == se.rational(1, 2) * se.y(1)
    with pytest.raises(ValueError):
        se.y(1) / se.y(1)
    with pytest.raises(ZeroDivisionError):
        se.y(1) / Scalar.zero()


# -- partial derivatives ---------------------------------------------------------

def test_partial_power_rule():
    assert se.partial(se.y(1, 1) ** 2, ('y', 1, (1,))) == se.rational(2) * se.y(1, 1)


def test_partial_independent_coordinates():
    assert se.partial(se.x(1), ('y', 1, ())).is_zero()


def test_partial_sorted_key_match():
    e = se.y(1, 1, 1) * se.y(1, 1, 2)
    assert se.partial(e, ('y', 1, (2, 1))) == se.y(1, 1, 1)


def test_partial_of_constant_vanishes():
    assert se.partial(se.rational(5, 3), ('y', 1, ())).is_zero()


# -- total derivatives -------------------------------------------------------------

def test_total_derivative_basics():
    assert se.total_derivative(se.y(1), 1) == se.y(1, 1)
    assert se.total_derivative(se.x(1), 1) == Scalar.one()
    assert se.total_derivative(se.rational(3), 2).is_zero()


def test_total_derivative_leibniz_randomized():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_expr(rng, n=3, m=2, order=2, degree=4)
        b = rand_expr(rng, n=3, m=2, order=2, degree=4)
        i = rng.randint(1, 3)
        lhs = se.total_derivative(a * b, i)
        rhs = se.total_derivative(a, i) * b + a * se.total_derivative(b, i)
        assert lhs == rhs


def test_total_derivatives_commute_randomized():
    rng = random.Random(12)
    for _ in range(30):
        e = rand_expr(rng, n=3, m=2, order=2, degree=4)
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        d_ij = se.total_derivative(se.total_derivative(e, i), j)
        d_ji = se.total_derivative(se.total_derivative(e, j), i)
        assert d_ij == d_ji


def test_total_derivative_raises_order_by_one():
    e = se.y(1, 1) ** 2
    assert e.max_jet_order() == 1
    assert se.total_derivative(e, 2).max_jet_order() == 2


# -- opaque function symbols --------------------------------------------------------

def test_opaque_chain_rule():
    # d_1 L = L_{;x1} + y_1 L_{;y} + y_11 L_{;y_1} for L(x, y, y_1)
    f = se.opaque("L", n=1, m=1, order=1)
    df = se.total_derivative(f, 1)
    lab = lambda key: Scalar({((('f', "L", (), 1, 1, 1, (key,)), 1),): Fraction(1)})
    manual = lab(('x', 1)) + se.y(1, 1) * lab(('y', 1, ())) + se.y(1, 1, 1) * lab(('y', 1, (1,)))
    assert df == manual


def test_opaque_formal_total_derivatives_commute():
    f = se.opaque("A", (1, 2), n=2, m=1, order=-1)
    d12 = se.total_derivative(se.total_derivative(f, 1), 2)
    d21 = se.total_derivative(se.total_derivative(f, 2), 1)
    assert d12 == d21
    assert not d12.is_zero()


def test_opaque_partials_do_not_exceed_declared_order():
    f = se.opaque("Xi", (1,), n=2, m=2, order=0)
    assert se.partial(f, ('y', 1, ())) != Scalar.zero()
    assert se.partial(f, ('y', 1, (1,))).is_zero()


def test_collect_linear():
    xi = se.opaque("Xi", (1,), n=1, m=1, order=-1)
    dxi = se.total_derivative(xi, 1)
    e = se.y(1) * xi + se.rational(3) * dxi
    buckets = se.collect_linear(e, "Xi")
    assert buckets[next(iter(xi.terms))[0][0]] == se.y(1)
    with pytest.raises(ValueError):
        se.collect_linear(xi * xi, "Xi")
