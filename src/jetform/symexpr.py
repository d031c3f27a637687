"""Exact scalar algebra over jet coordinates.

Expressions are kept in an expanded multivariate normal form: a map from
monomials to nonzero rational coefficients, each an ``int`` or a
``Fraction``.  The two compare and hash equal, so the normal form does not
depend on which one a coefficient happens to be; the constructors store
integral constants as ``int``, but arithmetic may leave an integral value
as a ``Fraction`` (``rational(1, 2) * 2`` stores ``Fraction(1, 1)``).  A
monomial is a tuple of (atom, exponent) pairs.  An atom is an ``Atom``,
made from its key tuple by ``atom(key)``; four kinds of keys exist:

* ``('x', i)``             -- base coordinate x^i, 1 <= i <= n
* ``('y', sigma, J)``      -- jet coordinate y^sigma_J, J a sorted tuple
* ``('f', name, idx, n, m, order, partials)`` -- opaque function symbol
* ``('g', f, I)``          -- formal total derivative D_I f of the opaque
  symbol with key f, I a sorted nonempty tuple (see below)

Atoms are interned: while an atom is alive, ``atom(key)`` returns that one
object, so atoms compare and hash by identity and no monomial lookup
re-hashes a key tuple.  The intern table holds weak references only, so an
atom dies with the last expression that uses it and the table carries
nothing from one call to the next.  Inside a monomial the atoms are ordered
by ``rank``, a creation counter; a monomial keeps its atoms alive, so their
ranks and its order stay fixed.  Printers order by ``key`` instead, so no
output depends on the order in which atoms were created.  Copies and
pickles of an atom are the interned atom of its key.

Two kernels build every term: ``_mul_into`` adds w a b to a {monomial:
coefficient} bucket, and ``_derive_into`` adds w D(e) to one, by the
Leibniz rule, for D a derivation given on atoms.  ``Scalar.__mul__``,
``partial``, ``total_derivative`` and ``expand`` wrap them, and a caller
with a running sum (``forms``, ``varmorph``, ``verify``) has each product
and derivative written straight into it, as sparse polynomial arithmetic
accumulates each product into its result (Johnson, SIGSAM Bull. 8, 1974),
instead of building it whole and merging it in a second pass.  A zero
weight adds nothing, so no bucket ever holds a zero.  ``gradient``, which
writes the partial in each coordinate into a bucket of its own, is the
one other pass over the factors of a monomial.

Jet coordinates are keyed by the sorted multi-index only (y_{12} and y_{21}
are the same stored coordinate); any multiplicity bookkeeping for sums over
unordered index tuples lives with the caller.

Opaque symbols model generic coefficient functions.  ``order`` declares the
coordinate dependence: the symbol depends on all x^i and on all y^sigma_J
with |J| <= order (order -1 means a function of the base point x only).
``partials`` is the sorted multiset of the keys of the formal partial
derivatives already applied; mixed partials commute, so the sorted tuple
is canonical.  Equality of expressions is literal equality of the normal forms.

d_i of an opaque atom f is the formal atom D_i f, and d_i D_I f is
D_{I+i} f; outside a ``_formal_scope`` that atom is replaced at once by its
expansion, the chain-rule normal form of d_I f.  ``_expansion`` is the one
place that builds it: the chain rule of f (``_chain_rule``) for one index,
d_{I[-1]} of the expansion of D_{I[:-1]} f for more.  Which jet
coordinates an opaque atom depends on is read off the shape in its key by
``_coords``.

While an outermost library call runs (the Lepage builders and
``lepage_check`` in ``lepage``, the splittings ``split_like``,
``split_canonical_codegree_s`` and ``alpha_discrepancy`` in ``varmorph``,
``verify.run_identity`` and one CLI command), one memo holds everything
derived from atoms, by identity: d_i of each atom in the formal ring
(``_formal_total``), the labelled partial for (atom, coordinate), the
partial of each formal atom in each coordinate, the nonzero partials that
``gradient`` reads per atom, the expansion of each formal atom and the jet
coordinates of an opaque shape.  An entry is a pure function of its key, since an atom's key
carries name, indices, n, m, order and partials, and scalars are never
mutated, so every call inside the scope may share it.  ``_memo_scope``
opens the memo, nested scopes reuse it, and the outermost scope drops it
in ``finally``: nothing is carried from one input to the next.  The
library makes no reference cycles (a nested function that calls itself
would be one), so reference counting frees everything a call drops, and
the outermost scope also pauses the cyclic garbage collector: its full
collections would walk the call's live heap, which grows with n, m and
the jet order, and free nothing.  The scope restores the collector state
it found on any exit.

Inside a ``_formal_scope`` the formal atoms stay formal.  The
integration-by-parts telescope, the residual in ``interior_euler`` and the
Lepage recurrence in ``lepage`` run there, where most of what the chain
rule would build cancels.  D_i acts as a derivation of the free
differential ring, and a formal atom has partials of its own, by the
commutator [d/dy^sigma_K, D_i] = d/dy^sigma_{K-i} (``_formal_partial``):

    d/dc D_{I+i} f = D_i(d/dc D_I f) + d/d(c - i) D_I f,

where c - i is y^sigma_{K-i} for c = y^sigma_K with i in K and no
coordinate otherwise (x-partials commute with D_i), and D_I f depends on
jet order up to order(f) + |I|.  Formal and chain-rule atoms are not
algebraically independent (D_i f is a sum of labelled partials), so a
formal zero is a zero but a formal nonzero proves nothing; ``expand``
turns every D_I f back into the chain-rule normal form before a formal
difference is read as nonzero or a result is handed out, so no formal atom
leaves the library.  Expanding is a ring homomorphism that commutes with
d_i and with every partial, so it gives exactly the chain-rule result.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, count
from typing import Iterable, Iterator

_interned: dict = {}  # key -> weak reference to its one live Atom
_ranks = count()


class Atom:
    """One interned atom: ``key`` is its tuple, ``kind`` is ``key[0]``.

    Made only by ``atom(key)``.  Equality and hashing are by identity;
    ``rank`` orders the atoms of a monomial.
    """

    __slots__ = ("key", "kind", "rank", "__weakref__")

    def __del__(self, table=_interned):
        # drop the table entry, unless a new atom of the key already holds
        # it; the table is bound here because module globals may be gone
        # when an atom dies at interpreter exit
        ref = table.get(self.key)
        if ref is not None and ref() in (self, None):
            del table[self.key]

    def __reduce__(self):
        return atom, (self.key,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        return f"atom({self.key!r})"


Monomial = tuple  # tuple[tuple[Atom, int], ...], atoms by ascending rank


def atom(key: tuple) -> Atom:
    """The live atom with this key, created on first use."""
    ref = _interned.get(key)
    if ref is not None:
        a = ref()
        if a is not None:
            return a
    a = Atom()
    a.key, a.kind, a.rank = key, key[0], next(_ranks)
    _interned[key] = weakref.ref(a)
    return a


def x(i: int) -> "Scalar":
    """The base coordinate x^i as an expression."""
    return Scalar({((atom(('x', i)), 1),): 1})


def y(sigma: int, *J: int) -> "Scalar":
    """The jet coordinate y^sigma_J; J is re-sorted on construction."""
    return Scalar({((y_atom(sigma, J), 1),): 1})


def y_atom(sigma: int, J: Iterable[int]) -> Atom:
    return atom(('y', sigma, tuple(sorted(J))))


def opaque(name: str, indices: tuple = (), *, n: int, m: int, order: int) -> "Scalar":
    """A generic function symbol of the coordinates up to jet ``order``.

    ``indices`` are tensor component labels (a flat tuple of ints) telling
    distinct components of one coefficient family apart.  ``order == -1``
    declares a function of x alone, whose d_i is its labelled x^i-partial.
    """
    return Scalar({((atom(('f', name, tuple(indices), n, m, order, ())), 1),): 1})


def rational(p: int, q: int = 1) -> "Scalar":
    return Scalar.from_fraction(Fraction(p, q))


def _merge(out: dict, terms: dict, c=1) -> None:
    """out += c terms in place, both {monomial: coefficient}; a monomial
    that cancels is dropped, and a zero weight adds nothing."""
    if not c:
        return
    for m, v in terms.items():
        if c != 1:
            v = v * c
        old = out.get(m)
        if old is None:
            out[m] = v
        elif s := old + v:
            out[m] = s
        else:
            del out[m]


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, ea = a[i]
        kb, eb = b[j]
        if ka is kb:
            out.append((ka, ea + eb))
            i += 1
            j += 1
        elif ka.rank < kb.rank:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mul_into(out: dict, a: dict, b: dict, w=1) -> None:
    """out += w a b in place, for {monomial: coefficient} maps: the one
    product loop of the library.

    Each product goes straight into out, and a monomial that cancels is
    dropped.  The shorter factor is the outer loop, so w multiplies its
    coefficients only; a coefficient 1 takes the other one as it is, so a
    constant factor makes no product of coefficients with the monomials
    whose coefficient is 1.  A zero weight adds nothing.
    """
    if not w:
        return
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ma, ca in a.items():
        if w != 1:
            ca = ca * w
        one = ca == 1
        for mb, cb in b.items():
            m = _mul_monomials(ma, mb)
            c = cb if one else ca if cb == 1 else ca * cb
            old = get(m)
            if old is None:
                out[m] = c
            elif s := old + c:
                out[m] = s
            else:
                del out[m]


_ONE = {(): 1}  # the terms of the constant 1


class Scalar:
    """An expression in normal form.  Never mutate ``terms`` after creation."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(c) -> "Scalar":
        """The constant c (an int or a Fraction); integral values become int."""
        if not c:
            return Scalar({})
        return Scalar({(): c.numerator if c.denominator == 1 else c})

    @staticmethod
    def zero() -> "Scalar":
        return Scalar({})

    @staticmethod
    def one() -> "Scalar":
        return Scalar({(): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(m == () for m in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return Fraction(self.terms[()])
        raise ValueError("expression is not a rational constant")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        _merge(out, other.terms)
        return Scalar(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Scalar":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other.terms == _ONE:
            return self
        if self.terms == _ONE:
            return other
        out: dict = {}
        _mul_into(out, self.terms, other.terms)
        return Scalar(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return Scalar.from_fraction(1 / self.as_fraction() ** (-k))
        out = Scalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        c = other.as_fraction()  # non-constant divisors are out of scope
        if c == 0:
            raise ZeroDivisionError("division by the zero expression")
        return self * Scalar.from_fraction(1 / c)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __reduce__(self):
        # unpickled atoms may be created afresh, with new ranks
        return _by_rank, (self.terms,)

    def __repr__(self):
        from .printers import scalar_text
        return f"Scalar({scalar_text(self)})"

    # -- structure ---------------------------------------------------------

    def atoms(self) -> Iterator[Atom]:
        seen = set()
        for m in self.terms:
            for a, _ in m:
                if a not in seen:
                    seen.add(a)
                    yield a

    def max_jet_order(self) -> int:
        """Highest |J| among jet coordinates and opaque dependencies present."""
        order = 0
        for a in self.atoms():
            key = a.key
            if a.kind == 'y':
                order = max(order, len(key[2]))
            elif a.kind == 'f':
                order = max(order, key[5], *(len(k[2]) for k in key[6] if k[0] == 'y'), 0)
        return order


def _by_rank(terms: dict) -> Scalar:
    """The expression with these terms, each monomial re-sorted by rank."""
    return Scalar({tuple(sorted(m, key=lambda p: p[0].rank)): c for m, c in terms.items()})


def _coerce(v) -> Scalar:
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar.from_fraction(v)
    raise TypeError(f"cannot coerce {v!r} to Scalar")


# -- differentiation -------------------------------------------------------

_derived: dict | None = None  # everything derived from atoms, inside a scope
_formal = False               # d_i of an opaque atom stays one formal atom


@contextmanager
def _memo_scope():
    """Keep everything derived from atoms for the rest of the outermost open
    scope, and pause the cyclic garbage collector until it closes.

    The library makes no reference cycles, so reference counting frees
    everything a call drops, and a collection during the call would only
    walk its live heap to free nothing.  The outermost scope restores the
    collector state it found on any exit: nested scopes leave it paused,
    and a caller that turned it off finds it off.  The memo is one module
    global, so the library is single-threaded.
    """
    global _derived
    if _derived is not None:
        yield
        return
    collecting = gc.isenabled()
    try:
        gc.disable()
        _derived = {}
        yield
    finally:
        _derived = None
        if collecting:
            gc.enable()


@contextmanager
def _formal_scope():
    """Keep every total derivative of an opaque atom formal until the span
    ends, inside a memo scope; the previous setting comes back on any exit."""
    global _formal
    outer = _formal
    with _memo_scope():
        _formal = True
        try:
            yield
        finally:
            _formal = outer


def _labelled(a: Atom, c: Atom, derived: dict) -> Atom:
    """The opaque atom a with one more formal partial, in the coordinate c."""
    f = derived.get((a, c))
    if f is None:
        key = a.key
        f = derived[a, c] = atom(key[:6] + (tuple(sorted(key[6] + (c.key,))),))
    return f


def _formal_total(a: Atom, i: int, derived: dict) -> Scalar:
    """d_i of one atom in the formal ring: 1 or 0 for x^j, y^sigma_{J+i}
    for y^sigma_J, the formal atom D_i f for f opaque and D_{I+i} f for
    D_I f."""
    da = derived.get((a, i))
    if da is None:
        kind, key = a.kind, a.key
        if kind == 'x':
            da = Scalar.one() if key[1] == i else Scalar.zero()
        else:
            if kind == 'y':
                d = y_atom(key[1], key[2] + (i,))
            elif kind == 'f':
                d = atom(('g', key, (i,)))
            else:
                d = atom(('g', key[1], tuple(sorted(key[2] + (i,)))))
            da = Scalar({((d, 1),): 1})
        derived[a, i] = da
    return da


def _coords(shape: tuple, derived: dict) -> list:
    """The jet coordinates y^sigma_J, |J| <= order, for the shape (n, m,
    order): those an opaque atom with that shape in its key depends on."""
    cs = derived.get(shape)
    if cs is None:
        n, m, order = shape
        cs = derived[shape] = [y_atom(sigma, J) for sigma in range(1, m + 1)
                               for J in jet_keys(n, order)]
    return cs


def _atom_partial(a: Atom, c: Atom, derived: dict) -> Scalar:
    """Partial derivative of a single atom with respect to a coordinate."""
    kind = a.kind
    if kind == 'g':
        return _formal_partial(a, c, derived)
    if kind != 'f':
        return Scalar.one() if a is c else Scalar.zero()
    # an opaque atom depends on every x^i and on y^sigma_J for |J| <= order
    if c.kind == 'x' or (c.kind == 'y' and len(c.key[2]) <= a.key[5]):
        return Scalar({((_labelled(a, c, derived), 1),): 1})
    return Scalar.zero()


def _formal_partial(g: Atom, c: Atom, derived: dict) -> Scalar:
    """The partial of g = D_I f in the coordinate c, in the formal ring.

    With I = I' + (i,): d/dc D_I f = D_i(d/dc D_I' f) + d/d(c - i) D_I' f,
    where c - i is y^sigma_{K-i} for c = y^sigma_K with i in K, and no
    coordinate otherwise (x-partials commute with D_i).  D_I f depends on
    no y^sigma_K with |K| > order(f) + |I|.
    """
    dg = derived.get((g, c))
    if dg is None:
        _, f, I = g.key
        if c.kind == 'y' and len(c.key[2]) > f[5] + len(I):
            dg = Scalar.zero()
        else:
            i, base = I[-1], atom(('g', f, I[:-1]) if len(I) > 1 else f)
            dg = _derive_monomials(_atom_partial(base, c, derived), _total_rule(i, True, derived))
            if c.kind == 'y' and i in c.key[2]:
                K = list(c.key[2])
                K.remove(i)
                dg = dg + _atom_partial(base, y_atom(c.key[1], K), derived)
        derived[g, c] = dg
    return dg


def _derive_into(out: dict, terms: dict, atom_rule, w=1) -> None:
    """out += w D(terms) in place, for {monomial: coefficient} maps, D the
    derivation that is ``atom_rule`` on atoms, by the Leibniz rule: the one
    Leibniz loop of the library.

    Each term of D(atom) is multiplied by the rest of the monomial straight
    into out; for a fixed rest these products are distinct monomials.  A
    zero weight adds nothing.
    """
    if not w:
        return
    get = out.get
    for mono, coeff in terms.items():
        for t, (a, k) in enumerate(mono):
            da = atom_rule(a).terms
            if not da:
                continue
            rest = mono[:t] + ((a, k - 1),) * (k > 1) + mono[t + 1:]
            kw = k * w
            ck = coeff if kw == 1 else coeff * kw
            for mb, cb in da.items():
                m = _mul_monomials(rest, mb)
                c = ck if cb == 1 else ck * cb
                old = get(m)
                if old is None:
                    out[m] = c
                elif s := old + c:
                    out[m] = s
                else:
                    del out[m]


def _derive_monomials(e: Scalar, atom_rule) -> Scalar:
    """The derivation that is ``atom_rule`` on atoms, applied to e."""
    out: dict = {}
    _derive_into(out, e.terms, atom_rule)
    return Scalar(out)


def partial(e: Scalar, coord: tuple) -> Scalar:
    """Formal partial derivative with respect to a single stored coordinate.

    ``coord`` is a coordinate key.  For jet coordinates the multi-index is
    matched after sorting and no multinomial weight is applied.  A formal
    atom D_I f goes to its partial in the formal ring (``_formal_partial``).
    """
    if coord[0] == 'y':
        coord = ('y', coord[1], tuple(sorted(coord[2])))
    c = atom(coord)
    derived = {} if _derived is None else _derived
    return _derive_monomials(e, lambda a: _atom_partial(a, c, derived))


def _total_rule(i: int, formal: bool, derived: dict):
    """d_i on atoms: ``_formal_total``, with the formal atom D_{I+i} f that
    an opaque or formal atom goes to expanded unless ``formal`` is set."""

    def rule(a):
        da = derived.get((a, i))  # _formal_total's lookup, inlined: one per factor
        if da is None:
            da = _formal_total(a, i, derived)
        if formal or a.kind in ('x', 'y'):
            return da
        [((g, _),)] = da.terms
        ex = derived.get(g)
        return _expansion(g, derived) if ex is None else ex

    return rule


def _d_rule(i: int):
    """d_i on atoms in the scope that is open: formal inside a
    ``_formal_scope``, sharing the open memo.  ``_derive_into`` with it adds
    a total derivative straight into a running sum."""
    return _total_rule(i, _formal, {} if _derived is None else _derived)


def total_derivative(e: Scalar, i: int) -> Scalar:
    """The i-th formal derivative d_i, raising the jet order by one.

    Inside a ``_formal_scope`` an opaque atom's d_i is the formal atom
    D_i f, and d_i D_I f is D_{I+i} f; ``expand`` reads them back.
    """
    return _derive_monomials(e, _d_rule(i))


def total_derivative_multi(e: Scalar, J: Iterable[int]) -> Scalar:
    for j in J:
        e = total_derivative(e, j)
    return e


def _chain_rule(a: Atom, i: int, derived: dict) -> Scalar:
    """d_i f in chain-rule normal form, for a = f opaque: f'x^i plus
    f'y^sigma_J * y^sigma_{J+i} over the coordinates ``_coords`` of f.

    Each labelled partial is a distinct atom, so every monomial has
    coefficient 1 once its two atoms are put in rank order.
    """
    out = {((_labelled(a, atom(('x', i)), derived), 1),): 1}
    for c in _coords(a.key[3:6], derived):
        f = _labelled(a, c, derived)
        [((r, _),)] = _formal_total(c, i, derived).terms  # y^sigma_{J+i}
        out[((f, 1), (r, 1)) if f.rank < r.rank else ((r, 1), (f, 1))] = 1
    return Scalar(out)


def _expansion(g: Atom, derived: dict) -> Scalar:
    """d_I f in chain-rule normal form, for g = D_I f: the chain rule of f
    for one index, and d_{I[-1]} of the expansion of D_{I[:-1]} f for more."""
    ex = derived.get(g)
    if ex is None:
        _, f, I = g.key
        if len(I) == 1:
            ex = _chain_rule(atom(f), I[0], derived)
        else:
            base = _expansion(atom(('g', f, I[:-1])), derived)
            ex = _derive_monomials(base, _total_rule(I[-1], False, derived))
        derived[g] = ex
    return ex


def expand(e: Scalar) -> Scalar:
    """e with every formal atom D_I f replaced by d_I f in chain-rule form.

    Expansion is a ring homomorphism that commutes with d_i, so expanding
    a formally derived expression gives exactly the chain-rule derivative.
    The monomials are grouped by their formal factors, so each group takes
    one product with the expansions, the last of which goes straight into
    the result (``_mul_into``).
    """
    groups: dict = {}
    for mono, coeff in e.terms.items():
        formal = tuple(p for p in mono if p[0].kind == 'g')
        rest = tuple(p for p in mono if p[0].kind != 'g') if formal else mono
        groups.setdefault(formal, {})[rest] = coeff
    if not any(groups):
        return e
    derived = {} if _derived is None else _derived
    out: dict = {}
    for formal, part in groups.items():
        if not formal:
            _merge(out, part)
            continue
        *inner, (g, k) = formal
        for h, j in inner:
            prod: dict = {}
            _mul_into(prod, part, (_expansion(h, derived) ** j).terms)
            part = prod
        _mul_into(out, part, (_expansion(g, derived) ** k).terms)
    return Scalar(out)


def jet_keys(n: int, order: int) -> Iterator[tuple]:
    """All sorted multi-indices over {1..n} of length 0..order."""
    for k in range(max(order, -1) + 1):
        yield from combinations_with_replacement(range(1, n + 1), k)


def _gradient_pairs(a: Atom, derived: dict) -> list:
    """[(c, monomial, coefficient)] over the terms of the partial of the
    opaque or formal atom a in each jet coordinate c in which it is
    nonzero, put in the memo under (a, 'gradient').

    An opaque atom's partials are its labelled partials in ``_coords``;
    D_I f may depend on jet order up to order(f) + |I|.
    """
    if a.kind == 'f':
        pairs = [(c, ((_labelled(a, c, derived), 1),), 1)
                 for c in _coords(a.key[3:6], derived)]
    else:
        _, f, I = a.key
        pairs = [(c, mb, cb) for c in _coords(f[3:5] + (f[5] + len(I),), derived)
                 for mb, cb in _formal_partial(a, c, derived).terms.items()]
    derived[a, 'gradient'] = pairs
    return pairs


def gradient(e: Scalar) -> dict:
    """Every nonzero partial in a jet coordinate, from one pass over e.

    Returns ``{('y', sigma, J): partial(e, ('y', sigma, J))}`` over the jet
    coordinates present in e and those its opaque and formal atoms depend
    on (``_gradient_pairs``).
    """
    derived = {} if _derived is None else _derived
    out: dict = {}
    for mono, coeff in e.terms.items():
        for t, (a, k) in enumerate(mono):
            kind = a.kind
            if kind == 'x':
                continue
            rest = mono[:t] + ((a, k - 1),) * (k > 1) + mono[t + 1:]
            ck = coeff if k == 1 else coeff * k
            if kind == 'y':
                pairs = ((a, (), 1),)
            elif (pairs := derived.get((a, 'gradient'))) is None:
                pairs = _gradient_pairs(a, derived)
            for c, mb, cb in pairs:
                m = _mul_monomials(rest, mb) if mb else rest
                v = ck if cb == 1 else ck * cb
                terms = out.get(c)
                if terms is None:
                    out[c] = {m: v}
                elif (old := terms.get(m)) is None:
                    terms[m] = v
                elif s := old + v:
                    terms[m] = s
                else:
                    del terms[m]
    return {c.key: Scalar(terms) for c, terms in out.items() if terms}
