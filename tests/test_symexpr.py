import copy
import gc
import pickle
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from jetform import symexpr as se
from jetform.forms import Context, volume
from jetform.printers import scalar_latex, scalar_text
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
    lab = lambda key: Scalar({((se.atom(('f', "L", (), 1, 1, 1, (key,))), 1),): Fraction(1)})
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


# -- the chain rule against a reference built from ring arithmetic -------------------

def _reference_atom_total(atom, i):
    """d_i of one atom by accumulating Scalar sums and products."""
    key = atom.key
    if key[0] == 'x':
        return Scalar.one() if key[1] == i else Scalar.zero()
    if key[0] == 'y':
        return se.y(key[1], *(key[2] + (i,)))
    f = Scalar({((atom, 1),): 1})
    n, m, order = key[3], key[4], key[5]
    out = se.partial(f, ('x', i))
    for sigma in range(1, m + 1):
        for J in se.jet_keys(n, order):
            out = out + se.y(sigma, *(J + (i,))) * se.partial(f, ('y', sigma, J))
    return out


def _reference_total_derivative(e, i):
    """Leibniz over the factors of every monomial, in ring arithmetic."""
    out = Scalar.zero()
    for mono, c in e.terms.items():
        for t, (a, k) in enumerate(mono):
            rest = mono[:t] + ((a, k - 1),) * (k > 1) + mono[t + 1:]
            out = out + Scalar({rest: c * k}) * _reference_atom_total(a, i)
    return out


@pytest.mark.parametrize("order", [-1, 0, 1, 2])
def test_opaque_chain_rule_matches_ring_reference(order):
    f = se.opaque("L", (1,), n=3, m=2, order=order)
    g = se.opaque("G", n=3, m=2, order=max(order - 1, -1))
    f_x = se.partial(f, ('x', 2))
    # a partial in the highest declared jet coordinate, or a second x-partial
    top = ('y', 1, (1, 2)[:order]) if order >= 0 else ('x', 1)
    f_xy = se.partial(f_x, top)
    assert not f_xy.is_zero()
    cases = [f, f_x, f_xy, f ** 2, f_x ** 3 * g,
             se.rational(-3, 2) * f * f_xy + se.y(1, 2) ** 2 * g + se.x(1) * f_x]
    for e in cases:
        for i in (1, 2, 3):
            assert se.total_derivative(e, i) == _reference_total_derivative(e, i)


# -- formal total derivatives of opaque atoms -----------------------------------------

def _rand_opaque_expr(rng, n=2, m=2):
    """A sum of products of opaque atoms of order -1..2, their powers and
    labelled partials, with polynomial factors."""
    atoms = [se.opaque(f"F{order}", (rng.randint(1, 2),), n=n, m=m, order=order)
             for order in (-1, 0, 1, 2)]
    atoms.append(se.partial(atoms[2], ('y', 2, (1,))))
    out = rand_expr(rng, n, m, order=1, degree=2, terms=2)
    for _ in range(3):
        term = se.rational(rng.randint(-3, 3) or 1, rng.choice([1, 2]))
        for a in rng.sample(atoms, rng.randint(1, 2)):
            term = term * a ** rng.randint(1, 2)
        out = out + term * rand_expr(rng, n, m, order=1, degree=1, terms=1)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_expanded_formal_derivative_is_the_chain_rule_derivative(seed):
    e = _rand_opaque_expr(random.Random(seed))
    for I in se.jet_keys(2, 3):
        if not I:
            continue
        with se._formal_scope():
            formal = se.total_derivative_multi(e, I)
            inside = se.expand(formal)  # expansions kept in the scope's memo
        assert any(a.kind == 'g' for a in formal.atoms())
        assert se.expand(formal) == inside == se.total_derivative_multi(e, I)


@pytest.mark.parametrize("seed", range(2))
def test_total_derivative_of_a_formal_atom_outside_the_scope(seed):
    # outside a formal scope d_i D_I f is the expansion of D_{I+i} f, so a
    # formal expression derives to the chain-rule derivative once expanded
    e = _rand_opaque_expr(random.Random(seed))
    with se._formal_scope():
        formal = se.total_derivative(e, 2)
    assert any(a.kind == 'g' for a in formal.atoms())
    for i in (1, 2):
        got = se.expand(se.total_derivative(formal, i))
        assert got == se.total_derivative(se.expand(formal), i)
        assert got == se.total_derivative_multi(e, (2, i))


def _rand_formal_expr(rng, n, m):
    """A polynomial in jet coordinates whose terms each hold a formal atom
    D_I f, |I| <= 3, of an opaque atom f of order -1..2 or of a labelled
    partial of one, with order(f) + |I| <= 3 so that the expansion stays
    small; times, in some terms, a power of an opaque atom or a D_i f."""
    fs = [se.opaque(f"F{order}", (rng.randint(1, 2),), n=n, m=m, order=order)
          for order in (-1, 0, 1, 2)]
    fs.append(se.partial(fs[2], ('y', m, (n,))))
    with se._formal_scope():
        atoms = [se.total_derivative_multi(f, [rng.randint(1, n) for _ in range(
                     rng.randint(1, 3 - max(next(f.atoms()).key[5], 0)))])
                 for f in fs]
        firsts = [se.total_derivative(f, rng.randint(1, n)) for f in fs]
    out = rand_expr(rng, n, m, order=1, degree=2, terms=2)
    for _ in range(3):
        term = se.rational(rng.randint(-3, 3) or 1, rng.choice([1, 2])) * rng.choice(atoms)
        pick = rng.randrange(3)
        if pick == 1:
            term = term * rng.choice(fs) ** rng.randint(1, 2)
        elif pick == 2:
            term = term * rng.choice(firsts)
        out = out + term * rand_expr(rng, n, m, order=1, degree=1, terms=1)
    return out


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_partials_of_formal_atoms_commute_with_expand(n, m):
    # d/dc D_{I+i} f = D_i(d/dc D_I f) + d/d(c - i) D_I f: the partial of a
    # formal expression expands to the partial of its expansion, in every
    # coordinate, and so does its total derivative; gradient agrees with
    # partial key by key
    rng = random.Random(10 * n + m)
    coords = [('x', i) for i in range(1, n + 1)]
    coords += [('y', sigma, J) for sigma in range(1, m + 1) for J in se.jet_keys(n, 4)]
    for _ in range(3):
        F = _rand_formal_expr(rng, n, m)
        assert any(a.kind == 'g' for a in F.atoms())
        with se._formal_scope():
            E = se.expand(F)
            grad = se.gradient(F)
            assert set(grad) <= set(coords)
            for c in coords:
                dF = se.partial(F, c)
                assert se.expand(dF) == se.partial(E, c)
                if c[0] == 'y':
                    assert grad.get(c, Scalar.zero()) == dF
            totals = [se.total_derivative(F, i) for i in range(1, n + 1)]
        assert all(any(a.kind == 'g' for a in d.atoms()) for d in totals)
        for i, d in enumerate(totals, start=1):
            assert se.expand(d) == se.total_derivative(E, i)


def test_formal_atoms_print_as_total_derivatives_of_their_symbol():
    # D_I f prints as D<I>(<f>) and in LaTeX as D_{I}(f), so repr works on
    # formal scalars and forms; the partials inside f print as they do on f
    f = se.opaque("L", n=2, m=1, order=1)
    ctx = Context(n=2, m=1)
    with se._formal_scope():
        d1 = se.total_derivative(f, 1)
        assert repr(d1) == "Scalar(D1(L))"
        assert scalar_text(se.total_derivative(d1, 2)) == "D12(L)"
        got = se.partial(d1, ('y', 1, (1,)))
        assert scalar_text(got) == "L'u + D1(L'u_1)"
        assert scalar_latex(got) == r"\partial_{u}L + D_{1}\left(\partial_{u_{1}}L\right)"
        rho = volume(ctx).scale(d1)
        assert repr(rho) == "Form((D1(L)) * ds)"


def test_partial_of_a_formal_atom_is_its_commutator_expansion():
    # d/dy_1 D_1 f = D_1 f_{y_1} + f_y, and no partial past order(f) + |I|
    f = se.opaque("F", n=2, m=1, order=1)
    with se._formal_scope():
        g = se.total_derivative(f, 1)
        got = se.partial(g, ('y', 1, (1,)))
        f_y1 = se.partial(f, ('y', 1, (1,)))
        assert got == se.total_derivative(f_y1, 1) + se.partial(f, ('y', 1, ()))
        assert se.partial(g, ('y', 1, (1, 2))) == se.partial(g, ('y', 1, (2, 1)))
        assert se.partial(g, ('y', 1, (1, 1, 2))).is_zero()
        assert se.partial(g, ('x', 2)) == se.total_derivative(se.partial(f, ('x', 2)), 1)
    expanded = se.expand(g)
    assert len(se.partial(expanded, ('y', 1, (1,))).terms) == 5
    assert se.expand(got) == se.partial(expanded, ('y', 1, (1,)))


def test_formal_scope_is_restored_on_every_exit():
    f = se.opaque("Fs", n=1, m=1, order=1)
    with se._formal_scope():
        with se._formal_scope():
            assert se._formal
        assert se._formal and se._derived is not None
        assert next(se.total_derivative(f, 1).atoms()).kind == 'g'
    assert not se._formal and se._derived is None
    with pytest.raises(RuntimeError):
        with se._formal_scope():
            raise RuntimeError
    assert not se._formal and se._derived is None
    assert se.total_derivative(f, 1) == se.expand(se.total_derivative(f, 1))


# -- integer and Fraction coefficients ------------------------------------------------

_MONOMIALS = [next(iter(e.terms)) for e in (
    Scalar.one(), se.x(1), se.y(1), se.y(2, 1), se.y(1, 1, 2) ** 2,
    se.opaque("L", n=2, m=2, order=1))]


def _build(spec, as_fraction):
    """A polynomial whose coefficients are all Fractions, or int where integral."""
    out = Scalar.zero()
    for which, p, q in spec:
        if p:
            c = Fraction(p, q)
            out = out + Scalar({_MONOMIALS[which]: c if as_fraction
                                else se.rational(p, q).terms[()]})
    return out


_SPECS = st.lists(st.tuples(st.integers(0, len(_MONOMIALS) - 1),
                            st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3])),
                  min_size=1, max_size=5)


@given(_SPECS, _SPECS)
def test_int_and_fraction_coefficients_give_equal_results(sa, sb):
    results = []
    for as_fraction in (False, True):
        a, b = _build(sa, as_fraction), _build(sb, as_fraction)
        if as_fraction:
            assert all(type(c) is Fraction for c in (a * b + a).terms.values())
        results.append([a + b, a - b, a * b, a * b + a, a ** 2, -a,
                        se.total_derivative(a * b, 1),
                        se.partial(a ** 2, ('y', 1, ()))])
    ints, fracs = results
    for u, v in zip(ints, fracs):
        assert u == v
        assert hash(u) == hash(v)


def test_integral_constants_are_stored_as_int():
    assert type(se.rational(6, 3).terms[()]) is int
    assert type(Scalar.from_fraction(Fraction(4)).terms[()]) is int
    assert type(se.rational(1, 2).terms[()]) is Fraction
    assert (se.y(1) * 3).terms == {((se.atom(('y', 1, ())), 1),): 3}


def test_as_fraction_is_exact_fraction():
    one = Scalar.one()
    assert type(one.as_fraction()) is Fraction
    assert type(Scalar.zero().as_fraction()) is Fraction
    inv = (2 * one) ** -2
    assert inv == se.rational(1, 4)
    assert inv.as_fraction() == Fraction(1, 4)
    assert type(inv.terms[()]) is Fraction
    assert (se.rational(7) ** -1).as_fraction() == Fraction(1, 7)


def test_power_squares_only_while_exponent_bits_remain(monkeypatch):
    calls = []
    mul = Scalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    base = se.y(1, 1) + se.y(1) + 1
    expect = Scalar.one()
    for k in range(1, 34):
        expect = expect * base
        monkeypatch.setattr(Scalar, "__mul__", counted)
        calls.clear()
        power = base ** k
        monkeypatch.setattr(Scalar, "__mul__", mul)
        # floor(log2 k) squarings and one product per set bit
        assert len(calls) == (k.bit_length() - 1) + bin(k).count("1"), k
        assert power == expect


def test_printers_do_not_see_the_coefficient_type():
    from jetform.printers import scalar_latex, scalar_text
    for body in (Scalar.one(), se.y(1, 2), se.x(1) * se.y(2)):
        for c in (3, -3, 1, -1):
            as_int = Scalar({m: c * v for m, v in body.terms.items()})
            as_frac = Scalar({m: Fraction(c) * v for m, v in body.terms.items()})
            assert scalar_text(as_int) == scalar_text(as_frac)
            assert scalar_latex(as_int) == scalar_latex(as_frac)


# -- the one-pass gradient against one partial per coordinate -------------------------

@st.composite
def _gradient_case(draw):
    """(e, n, m): a polynomial in x, y and opaque atoms of order -1..2.

    Powers reach 3; opaque atoms may already carry partials, and some terms
    come as f - y_c * (df/dy_c), whose gradients cancel in part.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    ys = [('y', sigma, J) for sigma in range(1, m + 1) for J in se.jet_keys(n, 2)]
    xs = [('x', i) for i in range(1, n + 1)]

    def opaque_factor():
        order = draw(st.integers(-1, 2))
        f = se.opaque(draw(st.sampled_from("FG")), (draw(st.integers(1, 2)),),
                      n=n, m=m, order=order)
        declared = xs + [c for c in ys if len(c[2]) <= order]
        for c in draw(st.lists(st.sampled_from(declared), max_size=2)):
            f = se.partial(f, c)
        return f

    def factor():
        kind = draw(st.sampled_from("xyf"))
        if kind == 'x':
            return se.x(draw(st.sampled_from(xs))[1])
        if kind == 'y':
            c = draw(st.sampled_from(ys))
            return se.y(c[1], *c[2])
        return opaque_factor()

    e = Scalar.zero()
    for _ in range(draw(st.integers(1, 4))):
        term = se.rational(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
        for _ in range(draw(st.integers(0, 3))):
            term = term * factor() ** draw(st.integers(1, 3))
        if draw(st.booleans()):
            f = opaque_factor()
            c = draw(st.sampled_from(ys))
            term = term * (f - se.y(c[1], *c[2]) * se.partial(f, c))
        e = e + term
    return e, n, m


@given(_gradient_case())
def test_gradient_equals_one_partial_per_declared_coordinate(case):
    e, n, m = case
    expect = {}
    for sigma in range(1, m + 1):
        for J in se.jet_keys(n, 3):
            d = se.partial(e, ('y', sigma, J))
            if not d.is_zero():
                expect[('y', sigma, J)] = d
    assert se.gradient(e) == expect


def test_gradient_of_a_cancelling_pair():
    f = se.opaque("F", n=2, m=1, order=0)
    f_u = se.partial(f, ('y', 1, ()))
    grad = se.gradient(f - se.y(1) * f_u)
    assert grad == {('y', 1, ()): Scalar.zero() - se.y(1) * se.partial(f_u, ('y', 1, ()))}


def test_gradient_builds_each_coordinate_label_once():
    # atoms of two orders and a square: every partial in one coordinate is
    # labelled with the same tuple object
    f = se.opaque("F", n=3, m=2, order=2)
    e = f * se.opaque("G", n=3, m=2, order=1) + f ** 2 * se.y(1, 2)
    labels: dict = {}
    for d in se.gradient(e).values():
        for mono in d.terms:
            for a, _ in mono:
                for key in a.key[6] if a.kind == 'f' else ():
                    labels.setdefault(key, set()).add(id(key))
    assert len(labels) == 2 * 10
    assert all(len(ids) == 1 for ids in labels.values())


# -- interned atoms ---------------------------------------------------------------------

def test_atoms_are_interned_by_key():
    a = se.atom(('y', 1, (1, 2)))
    assert se.atom(('y', 1, (1, 2))) is a
    assert next(iter(se.y(1, 2, 1).terms))[0][0] is a
    assert a.key == ('y', 1, (1, 2)) and a.kind == 'y'
    assert se.atom(('y', 2, (1, 2))) is not a


def _copy_cases():
    from jetform.forms import Context, omega, wedge
    f = se.opaque("Lc", (1,), n=2, m=2, order=1)
    e = (se.rational(3, 2) * se.x(1) * se.y(2, 1) ** 2
         + se.partial(se.partial(f, ('y', 1, (2,))), ('x', 1)) * se.y(1) - 4)
    return [e, wedge(omega(Context(n=2, m=2), 1, 2), omega(Context(n=2, m=2), 2)).scale(e)]


@pytest.mark.parametrize("round_trip", ["copy", "deepcopy", "pickle"])
def test_copies_keep_atom_identity(round_trip):
    trip = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda v: pickle.loads(pickle.dumps(v))}[round_trip]
    for value in _copy_cases():
        back = trip(value)
        assert back == value
        assert hash(back) == hash(value)
    a = se.atom(('f', "Lc", (1,), 2, 2, 1, ()))
    assert trip(a) is a


def test_unpickled_expression_is_in_normal_form_when_its_atoms_are_new():
    # Pk_a and Pk_b die after pickling and come back in the other order,
    # so their ranks are reversed
    data = pickle.dumps(se.opaque("Pk_a", n=1, m=1, order=0)
                        * se.opaque("Pk_b", n=1, m=1, order=0))
    gc.collect()
    keys = [('f', name, (), 1, 1, 0, ()) for name in ("Pk_a", "Pk_b")]
    assert not any(key in se._interned for key in keys)
    held = [se.atom(key) for key in reversed(keys)]
    assert held[0].rank < held[1].rank  # Pk_b now ranks first
    back = pickle.loads(data)
    assert back == se.opaque("Pk_a", n=1, m=1, order=0) * se.opaque("Pk_b", n=1, m=1, order=0)
