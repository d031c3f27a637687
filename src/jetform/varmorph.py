"""Variational morphisms and their canonical splittings.

A morphism of codegree s and rank r is a coefficient family A^{i_1..i_s J}_sigma
pairing the r-jet of a vertical field:

    <V | J^r Xi> = [ sum over ordered blocks and multi-indices of
                     A^{i_1..i_s J}_sigma  d_J Xi^sigma ] x ds_{i_1..i_s}

Coefficients are stored per strictly increasing block (lookups for permuted
blocks are signed) and per exact rank-index string J.  Exact J keys matter:
the split-like volume part is not symmetric in its rank indices, so it
cannot live on sorted keys.  All stored values follow the ordered-tuple sum
convention above.

Every morphism splits as <V|J^r Xi> = <E|J^r Xi> + Div(<T|J^{r-1}Xi>) in
two ways, at every rank and codegree: the split-like recurrence, which
mirrors integration by parts, and the canonical splitting, whose parts are
reduced (Kolar's representative, built one hook shape at a time).  They
coincide at codegree 0 and at rank 1; ``alpha_discrepancy`` measures how far
apart their boundary parts are elsewhere.  Both splittings and
``divergence`` scatter stored coefficients rather than walk every
(block, sigma, J); one kernel, ``_antisymmetrized``, does the
antisymmetrization over the block plus the first rank index that
reducedness and both boundary parts are built from.  Sums, the pairing
``evaluate`` and the conversions with contact forms scatter too: each
writes the stored coefficients once into a {key: {monomial: coefficient}}
running sum and makes a morphism or form of it at the end.

The fibered connection is fixed to the zero-coefficient one of the working
chart, so covariant derivatives are total derivatives throughout.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import symexpr
from .forms import (Context, Form, _add_terms, _ds_wedge, _insert, _summed,
                    codegree, ds_parts, p_k)
from .multiindex import signed_get, tuple_multiplicity
from .symexpr import Scalar


class NotOneContact(ValueError):
    """The form carries contact degree >= 2 and is not a morphism."""


def formal_field(ctx: Context, name: str = "Xi") -> dict:
    """A generic vertical field with purely formal total derivatives."""
    return {sigma: symexpr.opaque(name, (sigma,), n=ctx.n, m=ctx.m, order=-1)
            for sigma in range(1, ctx.m + 1)}


def vertical_field(ctx: Context, name: str = "Xi") -> dict:
    """A generic vertical field Xi^sigma(x, y); derivatives chain-expand."""
    return {sigma: symexpr.opaque(name, (sigma,), n=ctx.n, m=ctx.m, order=0)
            for sigma in range(1, ctx.m + 1)}


@dataclass
class VariationalMorphism:
    ctx: Context
    s: int
    coeffs: dict = field(default_factory=dict)  # (block, sigma, J) -> Scalar

    # -- storage -----------------------------------------------------------

    def set(self, block, sigma: int, J, value: Scalar) -> None:
        block = tuple(block)
        if tuple(sorted(block)) != block or len(set(block)) != len(block):
            raise ValueError("blocks are stored strictly increasing")
        key = (block, sigma, tuple(J))
        if value.is_zero():
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = value

    def value(self, block, sigma: int, J) -> Scalar:
        """Signed coefficient lookup for an arbitrarily ordered block."""
        return signed_get(self.coeffs, block, (sigma, tuple(J)), Scalar.zero())

    @property
    def rank(self) -> int:
        return max((len(J) for _, _, J in self.coeffs), default=0)

    def _plus(self, other: "VariationalMorphism", c: int) -> "VariationalMorphism":
        """self + c other."""
        if self.s != other.s:
            raise ValueError("codegrees differ")
        acc = {key: dict(v.terms) for key, v in self.coeffs.items()}
        for key, v in other.coeffs.items():
            _add_terms(acc, key, v.terms, c)
        return _morphism(self.ctx, self.s, acc)

    def __sub__(self, other: "VariationalMorphism") -> "VariationalMorphism":
        return self._plus(other, -1)

    def __add__(self, other: "VariationalMorphism") -> "VariationalMorphism":
        return self._plus(other, 1)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.coeffs.values())

    # -- pairing -----------------------------------------------------------

    def evaluate(self, xi: dict) -> Form:
        """<V | J^r Xi> as an (n-s)-horizontal form."""
        ctx = self.ctx
        sfact = math.factorial(self.s)
        cache: dict = {}  # total derivatives commute: one entry per sorted J
        acc: dict = {}
        for (block, sigma, J), v in self.coeffs.items():
            key = (sigma, tuple(sorted(J)))
            if key not in cache:
                cache[key] = symexpr.total_derivative_multi(xi[sigma], key[1])
            w, sign = _ds_wedge(ctx.n, block)
            if sign:
                _add_terms(acc, w, (v * cache[key]).terms, sign * sfact)
        return _summed(ctx, acc)


@dataclass
class SplitResult:
    volume: VariationalMorphism
    boundary: VariationalMorphism


# -- conversions with contact forms ------------------------------------------


def from_contact_form(rho: Form) -> VariationalMorphism:
    """Read a 1-contact (n-s)-horizontal form as a morphism."""
    ctx = rho.ctx
    if rho.contact_degree() > 1:
        raise NotOneContact("form has contact components of degree >= 2")
    part = p_k(rho, 1)
    s = codegree(part)
    sfact = math.factorial(s)
    coeffs = {}
    for block, contact in ds_parts(part).items():
        for [(_, sigma, J)], c in contact.terms.items():
            # a sorted-key coefficient, shared out over the orderings of J
            share = c * Fraction(1, sfact * tuple_multiplicity(J))
            for Jord in set(itertools.permutations(J)):
                coeffs[(block, sigma, Jord)] = share
    return VariationalMorphism(ctx, s, coeffs)


def to_contact_form(V: VariationalMorphism) -> Form:
    """The 1-contact form associated with a morphism: the sum of
    s! A^{block J}_sigma omega^sigma_J ^ ds_block.

    Div(<T|J^{r-1}Xi>) = J^r Xi _| d_H of minus the form of T.
    """
    ctx = V.ctx
    sfact = math.factorial(V.s)
    acc: dict = {}
    for (block, sigma, J), v in V.coeffs.items():
        horiz, sign = _ds_wedge(ctx.n, block)
        if sign:
            w, flip = _insert(('w', sigma, tuple(sorted(J))), horiz)
            _add_terms(acc, w, v.terms, flip * sign * sfact)
    return _summed(ctx, acc)


def divergence(Q: VariationalMorphism) -> VariationalMorphism:
    """Div of a morphism: codegree drops by one, rank rises by at most one.

    Read off the stored coefficients of Q, of codegree s+1.  Each
    c = Q^{b' sigma K}, with b' strictly increasing of length s+1 and K of
    length h, is scattered once per position p of b': with i = b'[p],
    b = b' without i and eps = (-1)^(s-p), the sign that sorts b + (i,)
    into b', the result gains eps (s+1) d_i c at (b, sigma, K) and
    eps (s+1) c/(h+1) at (b, sigma, K with i inserted at t) for every
    t = 0 .. h.  The result pairs to Div(<Q|J^r Xi>) for every Q, and it is
    symmetric in its rank strings whenever Q is.
    """
    s = Q.s - 1
    acc: dict = {}
    for (bp, sigma, K), c in Q.coeffs.items():
        moved = Fraction(s + 1, len(K) + 1)
        for p, i in enumerate(bp):
            b = bp[:p] + bp[p + 1:]
            eps = -1 if (s - p) % 2 else 1
            _add_terms(acc, (b, sigma, K), symexpr.total_derivative(c, i).terms,
                       eps * (s + 1))
            for t in range(len(K) + 1):
                _add_terms(acc, (b, sigma, K[:t] + (i,) + K[t:]), c.terms, eps * moved)
    return _morphism(Q.ctx, s, acc)


def _morphism(ctx: Context, s: int, acc: dict) -> VariationalMorphism:
    """The morphism held by a {(block, sigma, J): {monomial: coefficient}}
    running sum."""
    return VariationalMorphism(ctx, s, {key: Scalar(t) for key, t in acc.items() if t})


# -- the block-plus-first-index antisymmetrization -----------------------------


def _antisymmetrized(V: VariationalMorphism, h: int) -> VariationalMorphism:
    """A^{[b' L]}: antisymmetrize rank h >= 1 over the block plus J[0].

    The codegree-(s+1) morphism whose coefficient at (b', sigma, L) is
    1/(s+1)! times the sum, over the orderings q of b', of sign(q) times
    V^{q[:s] sigma (q[s],) + L}, read off the stored coefficients of V of
    rank h.  Each c = V^{b sigma J} with i = J[0]
    not in b lands once: with b' = b with i inserted at position p,
    (-1)^(s-p) c/(s+1) goes to (b', sigma, J[1:]).  The block lookup is
    already signed, so the (s+1)! orderings collapse to these s+1 terms.
    """
    s = V.s
    acc: dict = {}
    for (b, sigma, J), c in V.coeffs.items():
        if len(J) != h or J[0] in b:
            continue
        p = bisect.bisect(b, J[0])
        w = Fraction(-1 if (s - p) % 2 else 1, s + 1)
        _add_terms(acc, (b[:p] + J[:1] + b[p:], sigma, J[1:]), c.terms, w)
    return _morphism(V.ctx, s + 1, acc)


# -- the split-like algorithm -------------------------------------------------


def split_like(V: VariationalMorphism) -> SplitResult:
    """The canonical-splitting-like decomposition, for every codegree s.

    E and T with <V|J^r Xi> = <E|J^r Xi> + Div(<T|J^{r-1}Xi>), both read
    off stored coefficients.  The boundary family is built top-down: for
    h = r .. 1, its rank-(h-1) part is the antisymmetrization of V's rank-h
    part minus d_{L[-1]} of each rank-h coefficient, placed at L[:-1]; T is
    that family over s+1.  The volume part is V minus a scatter of the
    family: for each stored c at (b', sigma, K) and each i in b', with b = b'
    without i and eps the sign that sorts b + (i,) into b', eps d_i c leaves
    (b, sigma, K) and eps c leaves (b, sigma, (i,) + K).  That moves the
    first rank index, not an average over positions, so E is in general
    neither symmetric in its rank indices nor reduced.  At s = 0 the
    one-index blocks make the antisymmetrization trivial and this is the
    canonical splitting.
    """
    ctx, s = V.ctx, V.s
    that: dict = {}
    layer: dict = {}
    for h in range(V.rank, 0, -1):
        acc = {key: dict(v.terms) for key, v in _antisymmetrized(V, h).coeffs.items()}
        for (bp, sigma, L), c in layer.items():
            _add_terms(acc, (bp, sigma, L[:-1]),
                       symexpr.total_derivative(c, L[-1]).terms, -1)
        layer = {key: Scalar(t) for key, t in acc.items() if t}
        that.update(layer)
    w = Fraction(1, s + 1)
    T = VariationalMorphism(ctx, s + 1, {key: v * w for key, v in that.items()})

    acc = {key: dict(v.terms) for key, v in V.coeffs.items()}
    for (bp, sigma, K), c in that.items():
        for p, i in enumerate(bp):
            b = bp[:p] + bp[p + 1:]
            eps = -1 if (s - p) % 2 else 1
            _add_terms(acc, (b, sigma, K), symexpr.total_derivative(c, i).terms, -eps)
            _add_terms(acc, (b, sigma, (i,) + K), c.terms, -eps)
    E = _morphism(ctx, s, acc)
    return SplitResult(E, T)


def _symmetrized(V: VariationalMorphism) -> VariationalMorphism:
    """V averaged over the orderings of each rank string, which pairs as V
    does since d_J Xi is symmetric in J.  A family of coefficients that is
    already equal at every ordering of its J is kept as it is."""
    coeffs, groups = {}, {}
    for key, c in V.coeffs.items():
        b, sigma, J = key
        if len(J) < 2:  # one ordering
            coeffs[key] = c
        else:
            groups.setdefault((b, sigma, tuple(sorted(J))), []).append(c)
    for (b, sigma, K), cs in groups.items():
        orderings = set(itertools.permutations(K))
        share = cs[0]
        if len(cs) < len(orderings) or any(c != share for c in cs[1:]):
            share = sum(cs, Scalar.zero()) * Fraction(1, len(orderings))
        if not share.is_zero():
            coeffs.update(((b, sigma, J), share) for J in orderings)
    return VariationalMorphism(V.ctx, V.s, coeffs)


# -- the canonical splitting ---------------------------------------------------


def split_canonical_codegree_s(V: VariationalMorphism) -> SplitResult:
    """The canonical splitting <V|J^r Xi> = <E|J^r Xi> + Div(<T|J^{r-1}Xi>).

    Built top-down from stored coefficients, for every rank r and codegree
    s >= 1.  E starts as V averaged over the orderings of each rank string
    (``_symmetrized``), which pairs as V does, and T empty; for h = r .. 1,
    T_{h-1} = h/(s+h) ``_antisymmetrized(E, h)``, T gains T_{h-1}, and E
    loses ``divergence(T_{h-1})``.  The part of that divergence which moves
    a block index into the rank string antisymmetrizes back to (s+h)/h
    times T_{h-1}, which fixes the weight: 1/(s+1) at h = 1, and 2/3 at
    rank 2, codegree 1.  What is left at rank h is the hook part, so both
    E and T are reduced, and E stays symmetric.  At codegree 0 the blocks
    are empty, the two splittings coincide, and the split-like recurrence
    computes it directly.
    """
    ctx, s = V.ctx, V.s
    if s == 0:
        return split_like(V)
    E = _symmetrized(V)
    T = VariationalMorphism(ctx, s + 1)
    for h in range(V.rank, 0, -1):
        w = Fraction(h, s + h)
        A = _antisymmetrized(E, h)
        Th = VariationalMorphism(ctx, s + 1, {key: v * w for key, v in A.coeffs.items()})
        T = T + Th
        E = E - divergence(Th)
    return SplitResult(E, T)


# -- the discrepancy of the two splittings --------------------------------------


def alpha_discrepancy(V: VariationalMorphism):
    """alpha with T' = T + alpha and E' = E - D(alpha), at every rank and codegree.

    T', E' is the split-like decomposition and T, E the canonical splitting.
    Returns (alpha, Dalpha); Dalpha is the unique morphism whose pairing with
    J^r Xi is Div(<alpha|J^{r-1} Xi>).  At codegree 0 both vanish.
    """
    return _discrepancy(split_like(V), split_canonical_codegree_s(V))


def _discrepancy(like: SplitResult, canon: SplitResult):
    """(alpha, Dalpha) from the two splittings of one morphism."""
    alpha = like.boundary - canon.boundary
    return alpha, divergence(alpha)
