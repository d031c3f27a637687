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

All of it runs on integers:

1. each public entry point clears its input once: with N the lcm of the
   denominators of every coefficient (``forms._cleared_terms``, the rule
   of ``forms._cleared``), N V is an integer family ``_Family``, a
   running sum of ints together with its scale N;
2. every rational weight is folded into that one scale instead of being
   multiplied in: the 1/(s+1) of ``_antisymmetrized``, the h/(s+h) of the
   canonical splitting, the (s+1)/(h+1) of ``divergence`` (over the lcm
   of every h+1), the 1/(s+1) of the split-like T and the 1/|orderings|
   of ``_symmetrized``; a family only ever gains integer multiples;
3. each result is divided by its scale once, at return (``_morphism``,
   and ``forms._summed`` for a form), so a coefficient that is whole
   stays an int and the only Fractions made are the stored ones.

``alpha_discrepancy`` runs both splittings, alpha and Dalpha on one
clearing of V; alpha is T' - T over the lcm of the two scales.  Sums of
pairings, which the ``verify`` identities compare, are one integer running
sum too (``_pairing_sum``): a sum that cancels makes no Fraction at all.

The fibered connection is fixed to the zero-coefficient one of the working
chart, so covariant derivatives are total derivatives throughout.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import symexpr
from .forms import (Context, Form, _add_terms, _cleared, _cleared_terms, _divided,
                    _ds_wedge, _insert, _summed, codegree, ds_parts, p_k)
from .multiindex import signed_get, tuple_multiplicity
from .symexpr import Scalar, _merge


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
        """self + c other, on one clearing of both."""
        if self.s != other.s:
            raise ValueError("codegrees differ")
        N, [acc, more] = _cleared_terms([self.coeffs, other.coeffs])
        for key, t in more.items():
            _add_terms(acc, key, t, c)
        return _morphism(_Family(self.ctx, self.s, N, acc))

    def __sub__(self, other: "VariationalMorphism") -> "VariationalMorphism":
        return self._plus(other, -1)

    def __add__(self, other: "VariationalMorphism") -> "VariationalMorphism":
        return self._plus(other, 1)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.coeffs.values())

    # -- pairing -----------------------------------------------------------

    def evaluate(self, xi: dict) -> Form:
        """<V | J^r Xi> as an (n-s)-horizontal form."""
        return _pairing_sum(xi, [(self, 1)])


@dataclass
class SplitResult:
    volume: VariationalMorphism
    boundary: VariationalMorphism


# -- integer families ------------------------------------------------------------


class _Family(NamedTuple):
    """A morphism of codegree s on integers: its coefficient at each key is
    acc[key] / scale, acc a {(block, sigma, J): {monomial: int}} running sum."""

    ctx: Context
    s: int
    scale: int
    acc: dict


def _family(V: VariationalMorphism) -> _Family:
    """V with its denominators cleared (``forms._cleared_terms``)."""
    N, [acc] = _cleared_terms([V.coeffs])
    return _Family(V.ctx, V.s, N, acc)


def _morphism(F: _Family) -> VariationalMorphism:
    """The morphism a family holds: the one division."""
    quotients: dict = {}
    return VariationalMorphism(F.ctx, F.s, {key: Scalar(_divided(t, F.scale, quotients))
                                            for key, t in F.acc.items() if t})


def _pairing_sum(xi: dict, terms) -> Form:
    """The sum of c <F|J^r Xi> over the (F, c) in terms, F a morphism or a
    family, and of c rho for a form rho among them.

    Each F or rho is cleared on its own; all are written into one integer
    running sum over the lcm S of their scales, which is divided by S at
    the end, so a sum that cancels makes no Fraction.  d_J Xi^sigma is
    taken once per sorted J, since total derivatives commute.
    """
    parts = []
    for F, c in terms:
        if isinstance(F, VariationalMorphism):
            F = _family(F)
        if isinstance(F, Form):
            N, [acc] = _cleared_terms([F.terms])
            parts.append((None, N, acc, c))
        else:
            parts.append((F, F.scale, F.acc, c))
    S = math.lcm(*(N for _, N, _, _ in parts))
    cache: dict = {}
    out: dict = {}
    for F, N, acc, c in parts:
        k = c * (S // N)
        if F is None:
            for w, t in acc.items():
                _add_terms(out, w, t, k)
            continue
        n, k = F.ctx.n, k * math.factorial(F.s)
        for (block, sigma, J), t in acc.items():
            w, sign = _ds_wedge(n, block)
            if not sign:
                continue
            key = (sigma, tuple(sorted(J)))
            d = cache.get(key)
            if d is None:
                d = cache[key] = symexpr.total_derivative_multi(xi[sigma], key[1])
            _add_terms(out, w, (Scalar(t) * d).terms, sign * k)
    return _summed(terms[0][0].ctx, out, S)


# -- conversions with contact forms ------------------------------------------


def from_contact_form(rho: Form) -> VariationalMorphism:
    """Read a 1-contact (n-s)-horizontal form as a morphism."""
    ctx = rho.ctx
    if rho.contact_degree() > 1:
        raise NotOneContact("form has contact components of degree >= 2")
    N, [part] = _cleared([p_k(rho, 1)])
    s = codegree(part)
    sfact = math.factorial(s)
    coeffs, quotients = {}, {}
    for block, contact in ds_parts(part).items():
        for [(_, sigma, J)], c in contact.terms.items():
            # a sorted-key coefficient, shared out over the orderings of J
            D = N * sfact * tuple_multiplicity(J)
            share = Scalar(_divided(c.terms, D, quotients.setdefault(D, {})))
            for Jord in set(itertools.permutations(J)):
                coeffs[(block, sigma, Jord)] = share
    return VariationalMorphism(ctx, s, coeffs)


def to_contact_form(V: VariationalMorphism) -> Form:
    """The 1-contact form associated with a morphism: the sum of
    s! A^{block J}_sigma omega^sigma_J ^ ds_block.

    Div(<T|J^{r-1}Xi>) = J^r Xi _| d_H of minus the form of T.
    """
    F = _family(V)
    n, sfact = V.ctx.n, math.factorial(V.s)
    acc: dict = {}
    for (block, sigma, J), t in F.acc.items():
        horiz, sign = _ds_wedge(n, block)
        if sign:
            w, flip = _insert(('w', sigma, tuple(sorted(J))), horiz)
            _add_terms(acc, w, t, flip * sign * sfact)
    return _summed(V.ctx, acc, F.scale)


# -- the divergence --------------------------------------------------------------


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
    return _morphism(_divergence(_family(Q)))


def _divergence(F: _Family) -> _Family:
    """Div F on integers: the 1/(h+1) of each rank h is cleared by L, the
    lcm of every h+1, so the result is L Div F over the scale of F times L."""
    s = F.s - 1
    ranks = {len(K) for _, _, K in F.acc}
    L = math.lcm(*(h + 1 for h in ranks))
    acc: dict = {}
    _scatter_divergence(acc, F.acc, s, {h: (s + 1) * (L // (h + 1)) for h in ranks})
    return _Family(F.ctx, s, F.scale * L, acc)


def _scatter_divergence(out: dict, acc: dict, s: int, weight: dict) -> None:
    """out += the sum, over the stored c at (b', sigma, K) of the codegree-(s+1)
    running sum acc, of weight[h] (h+1)/(s+1) times the part of Div that
    ``divergence`` scatters from c, h = |K|: eps weight[h] (h+1) d_i c at
    (b, sigma, K) and eps weight[h] c at each insertion of i into K."""
    for (bp, sigma, K), c in acc.items():
        h = len(K)
        k = weight[h]
        for p, i in enumerate(bp):
            b = bp[:p] + bp[p + 1:]
            e = -k if (s - p) % 2 else k
            _add_terms(out, (b, sigma, K), symexpr.total_derivative(Scalar(c), i).terms,
                       e * (h + 1))
            for t in range(h + 1):
                _add_terms(out, (b, sigma, K[:t] + (i,) + K[t:]), c, e)


# -- the block-plus-first-index antisymmetrization -----------------------------


def _antisymmetrized(acc: dict, s: int, h: int) -> dict:
    """(s+1) A^{[b' L]}: rank h >= 1 of a codegree-s running sum
    antisymmetrized over the block plus J[0], on integers.

    The coefficient at (b', sigma, L) is 1/(s+1)! times the sum, over the
    orderings q of b', of sign(q) times A^{q[:s] sigma (q[s],) + L}; the
    result is s+1 times that.  Each c = A^{b sigma J} of rank h with
    i = J[0] not in b lands once: with b' = b with i inserted at position
    p, (-1)^(s-p) c goes to (b', sigma, J[1:]).  The block lookup is
    already signed, so the (s+1)! orderings collapse to these s+1 terms,
    and the 1/(s+1) is left to the caller's scale.
    """
    out: dict = {}
    for (b, sigma, J), c in acc.items():
        if len(J) != h or J[0] in b:
            continue
        p = bisect.bisect(b, J[0])
        _add_terms(out, (b[:p] + J[:1] + b[p:], sigma, J[1:]), c,
                   -1 if (s - p) % 2 else 1)
    return {key: t for key, t in out.items() if t}


def _rank(F: _Family) -> int:
    return max((len(J) for _, _, J in F.acc), default=0)


# -- the split-like algorithm -------------------------------------------------


@symexpr._memo_scope()
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
    return SplitResult(*map(_morphism, _split_like(_family(V))))


def _split_like(F: _Family) -> tuple:
    """(E, T) of ``split_like`` on integers.  The family is held times s+1,
    which clears the 1/(s+1) of every antisymmetrization, so E is over the
    scale of F times s+1 and T over that times s+1 again."""
    s = F.s
    that: dict = {}
    layer: dict = {}
    for h in range(_rank(F), 0, -1):
        acc = _antisymmetrized(F.acc, s, h)
        for (bp, sigma, L), c in layer.items():
            _add_terms(acc, (bp, sigma, L[:-1]),
                       symexpr.total_derivative(Scalar(c), L[-1]).terms, -1)
        layer = {key: t for key, t in acc.items() if t}
        that.update(layer)

    acc = {key: {m: v * (s + 1) for m, v in t.items()} for key, t in F.acc.items()}
    for (bp, sigma, K), c in that.items():
        for p, i in enumerate(bp):
            b = bp[:p] + bp[p + 1:]
            eps = -1 if (s - p) % 2 else 1
            _add_terms(acc, (b, sigma, K), symexpr.total_derivative(Scalar(c), i).terms, -eps)
            _add_terms(acc, (b, sigma, (i,) + K), c, -eps)
    scale = F.scale * (s + 1)
    return _Family(F.ctx, s, scale, acc), _Family(F.ctx, s + 1, scale * (s + 1), that)


def _symmetrized(F: _Family) -> _Family:
    """F averaged over the orderings of each rank string, which pairs as F
    does since d_J Xi is symmetric in J.  A family of coefficients that is
    already equal at every ordering of its J is kept as it is.  The 1/|orderings|
    of the averages is cleared by L, their lcm: the result is over the
    scale of F times L."""
    kept, groups = {}, {}
    for key, c in F.acc.items():
        b, sigma, J = key
        if len(J) < 2:  # one ordering
            kept[key] = c
        else:
            groups.setdefault((b, sigma, tuple(sorted(J))), {})[key] = c
    averaged = {}
    for gkey, cs in groups.items():
        orderings = set(itertools.permutations(gkey[2]))
        first, *rest = cs.values()
        if len(cs) < len(orderings) or any(c != first for c in rest):
            averaged[gkey] = orderings
        else:
            kept.update(cs)
    L = math.lcm(*map(len, averaged.values()))
    acc = kept if L == 1 else {key: {m: v * L for m, v in t.items()} for key, t in kept.items()}
    for gkey, orderings in averaged.items():
        share: dict = {}
        for c in groups[gkey].values():
            _merge(share, c, L // len(orderings))
        if share:
            b, sigma, _ = gkey
            acc.update(((b, sigma, J), share) for J in orderings)
    return _Family(F.ctx, F.s, F.scale * L, acc)


# -- the canonical splitting ---------------------------------------------------


@symexpr._memo_scope()
def split_canonical_codegree_s(V: VariationalMorphism) -> SplitResult:
    """The canonical splitting <V|J^r Xi> = <E|J^r Xi> + Div(<T|J^{r-1}Xi>).

    Built top-down from stored coefficients, for every rank r and codegree
    s >= 1.  E starts as V averaged over the orderings of each rank string
    (``_symmetrized``), which pairs as V does, and T empty; for h = r .. 1,
    T_{h-1} = h/(s+h) times the antisymmetrization of E's rank h, T gains
    T_{h-1}, and E loses ``divergence(T_{h-1})``.  The part of that
    divergence which moves a block index into the rank string
    antisymmetrizes back to (s+h)/h times T_{h-1}, which fixes the weight:
    1/(s+1) at h = 1, and 2/3 at rank 2, codegree 1.  What is left at rank
    h is the hook part, so both E and T are reduced, and E stays symmetric.
    At codegree 0 the blocks are empty, the two splittings coincide, and
    the split-like recurrence computes it directly.
    """
    return SplitResult(*map(_morphism, _split_canonical(_family(V))))


def _split_canonical(F: _Family) -> tuple:
    """(E, T) of ``split_canonical_codegree_s`` on integers.

    With E = acc / S and a = (s+1) S times the antisymmetrization of its
    rank h, T_{h-1} = h a / ((s+1) S (s+h)), and Div T_{h-1} is
    h/((s+1) S (s+h)) Div a, a of rank h-1: the weight -1 of
    ``_scatter_divergence``.  So each step takes E to (s+h) acc plus that
    scatter, over (s+h) S; T_{h-1}, whose rank strings no other step
    writes, goes over the last scale of E times s+1 at once.
    """
    s = F.s
    if s == 0:
        return _split_like(F)
    E = _symmetrized(F)
    acc, scale = E.acc, E.scale
    r = _rank(F)
    last = scale * math.prod(range(s + 1, s + r + 1))
    T: dict = {}
    for h in range(r, 0, -1):
        a = _antisymmetrized(acc, s, h)
        scale *= s + h
        k = h * (last // scale)
        T.update((key, {m: v * k for m, v in t.items()}) for key, t in a.items())
        acc = {key: {m: v * (s + h) for m, v in t.items()} for key, t in acc.items()}
        _scatter_divergence(acc, a, s, {h - 1: -1})
    return _Family(F.ctx, s, scale, acc), _Family(F.ctx, s + 1, last * (s + 1), T)


# -- the discrepancy of the two splittings --------------------------------------


@symexpr._memo_scope()
def alpha_discrepancy(V: VariationalMorphism):
    """alpha with T' = T + alpha and E' = E - D(alpha), at every rank and codegree.

    T', E' is the split-like decomposition and T, E the canonical splitting.
    Returns (alpha, Dalpha); Dalpha is the unique morphism whose pairing with
    J^r Xi is Div(<alpha|J^{r-1} Xi>).  At codegree 0 both vanish.  One
    clearing of V serves both splittings, alpha and Dalpha.
    """
    return tuple(map(_morphism, _discrepancy(*_splittings(_family(V)))))


def _splittings(F: _Family) -> tuple:
    """((E', T'), (E, T)): the split-like and the canonical splitting of F,
    as integer families."""
    like = _split_like(F)
    return like, like if F.s == 0 else _split_canonical(F)


def _discrepancy(like: tuple, canon: tuple) -> tuple:
    """(alpha, Dalpha) as integer families, from the integer splittings of
    one morphism: alpha = T' - T over the lcm of their scales."""
    (_, Tl), (_, Tc) = like, canon
    S = math.lcm(Tl.scale, Tc.scale)
    acc: dict = {}
    for T, c in ((Tl, 1), (Tc, -1)):
        for key, t in T.acc.items():
            _add_terms(acc, key, t, c * (S // T.scale))
    alpha = _Family(Tl.ctx, Tl.s, S, acc)
    return alpha, _divergence(alpha)
