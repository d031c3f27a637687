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
writes the stored coefficients once into a running sum.

A morphism is stored on integers: one {monomial: int} bucket per
(block, sigma, J) and one positive integer scale, the coefficient being
the bucket over the scale.  Coefficients are cleared once, where they come
in: ``VariationalMorphism.of`` clears a {key: Scalar} map by the lcm of its
denominators (``forms._cleared_terms``), and ``from_contact_form`` clears
the form.  Every rational weight is then folded into the scale of a result
instead of being multiplied in: the 1/(s+1) of ``_antisymmetrized``, the
h/(s+h) of the canonical splitting, the (s+1)/(h+1) of ``divergence`` (over
the lcm of every h+1), the 1/(s+1) of the split-like T, the 1/|orderings|
of ``_symmetrized``, and the 1/s! and 1/|orderings of J| that
``from_contact_form`` shares a form's coefficient out by.  Sums take the
lcm of the scales.  A coefficient is divided only where it is read
(``coeffs``, ``value``), and a form once, at the end (``to_contact_form``
and the pairing, through ``forms._summed``): a coefficient that is whole
stays an int, and the only Fractions made are the ones read.  Sums of
pairings, which the ``verify`` identities compare, are one integer running
sum (``_pairing_sum``), paired once by linearity: the weighted buckets of
all the morphisms are summed before any product with d_J Xi, so a sum
that cancels takes no product at all.  Derivatives of buckets go straight
into the running sums of the splittings (``symexpr._derive_into``).

The fibered connection is fixed to the zero-coefficient one of the working
chart, so covariant derivatives are total derivatives throughout.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

from . import symexpr
from .forms import (Context, Form, _add_terms, _bit, _cleared, _cleared_terms,
                    _covectors, _divided, _ds_wedge, _insert, _summed, codegree,
                    ds_parts, p_k)
from .multiindex import sort_with_sign, tuple_multiplicity
from .symexpr import Scalar, _d_rule, _derive_into, _merge, _mul_into


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


@dataclass(eq=False)
class VariationalMorphism:
    """A morphism of codegree s whose coefficient at (block, sigma, J) is
    acc[(block, sigma, J)] / scale, each acc value a {monomial: int} bucket.

    A stored bucket is never mutated, like the terms of a Scalar: every
    operation writes its result into new buckets.  So one bucket may be
    stored at several keys (at every ordering of a rank string) and in
    several morphisms (an input and the parts built from it), while each
    morphism owns its acc map.  A bucket that cancelled may stay, empty;
    every reader skips it.  Two morphisms are equal when their coefficients
    are, whatever their scales.
    """

    ctx: Context
    s: int
    scale: int = 1
    acc: dict = field(default_factory=dict)

    @classmethod
    def of(cls, ctx: Context, s: int, coeffs: dict) -> "VariationalMorphism":
        """The morphism with these {(block, sigma, J): Scalar} coefficients."""
        N, [acc] = _cleared_terms([coeffs])
        return cls(ctx, s, N, acc)

    @property
    def coeffs(self) -> dict:
        """{(block, sigma, J): Scalar}, the nonzero stored coefficients."""
        quotients: dict = {}
        return {key: Scalar(_divided(t, self.scale, quotients))
                for key, t in self.acc.items() if t}

    def value(self, block, sigma: int, J) -> Scalar:
        """Signed coefficient lookup for an arbitrarily ordered block."""
        block, sign = sort_with_sign(block)
        t = self.acc.get((block, sigma, tuple(J))) if sign else None
        if not t:
            return Scalar.zero()
        c = Scalar(_divided(t, self.scale, {}))
        return c if sign == 1 else -c

    @property
    def rank(self) -> int:
        return max((len(J) for (_, _, J), t in self.acc.items() if t), default=0)

    def is_zero(self) -> bool:
        return not any(self.acc.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, VariationalMorphism):
            return NotImplemented
        return (self.ctx, self.s, self.coeffs) == (other.ctx, other.s, other.coeffs)

    def _plus(self, other: "VariationalMorphism", c: int) -> "VariationalMorphism":
        """self + c other, over the lcm of the two scales."""
        if self.s != other.s:
            raise ValueError("codegrees differ")
        S = math.lcm(self.scale, other.scale)
        acc: dict = {}
        for F, k in ((self, S // self.scale), (other, c * (S // other.scale))):
            for key, t in F.acc.items():
                _add_terms(acc, key, t, k)
        return VariationalMorphism(self.ctx, self.s, S, acc)

    def __sub__(self, other: "VariationalMorphism") -> "VariationalMorphism":
        return self._plus(other, -1)

    def __add__(self, other: "VariationalMorphism") -> "VariationalMorphism":
        return self._plus(other, 1)

    # -- pairing -----------------------------------------------------------

    def evaluate(self, xi: dict) -> Form:
        """<V | J^r Xi> as an (n-s)-horizontal form."""
        return _pairing_sum(xi, [(self, 1)])


@dataclass
class SplitResult:
    volume: VariationalMorphism
    boundary: VariationalMorphism


def _pairing_sum(xi: dict, terms) -> Form:
    """The sum of c <V|J^r Xi> over the (V, c) in terms, V a morphism, and
    of c rho for a form rho among them.

    Each rho is cleared on its own; all are written into one integer
    running sum over the lcm S of the scales, which is divided by S at the
    end.  d_J Xi^sigma is symmetric in J, since total derivatives commute,
    and the pairing is linear in V: the buckets of every morphism at every
    ordering of each (block, sigma, sorted J), each times its weight
    c (S/N) s!, are summed first, and each sum that is still nonzero is
    multiplied once by d_J Xi^sigma, taken once per (sigma, sorted J).  So
    a difference of morphisms that cancels takes no product and no d_J.
    """
    parts = []
    for F, c in terms:
        if isinstance(F, Form):
            N, [acc] = _cleared_terms([F.terms])
            parts.append((None, N, acc, c))
        else:
            parts.append((F.s, F.scale, F.acc, c))
    S = math.lcm(*(N for _, N, _, _ in parts))
    out: dict = {}
    merged: dict = {}  # (block, sigma, sorted J) -> the weighted sum of its buckets
    for s, N, acc, c in parts:
        k = c * (S // N)
        if s is None:
            for w, t in acc.items():
                _add_terms(out, w, t, k)
            continue
        k *= math.factorial(s)
        for (block, sigma, J), t in acc.items():
            _merge(merged.setdefault((block, sigma, tuple(sorted(J))), {}), t, k)
    ctx = terms[0][0].ctx
    cache: dict = {}
    for (block, sigma, J), t in merged.items():
        w, sign = _ds_wedge(ctx.n, block)
        if not (t and sign):
            continue
        d = cache.get((sigma, J))
        if d is None:
            d = cache[sigma, J] = symexpr.total_derivative_multi(xi[sigma], J).terms
        _mul_into(out.setdefault(w, {}), t, d, sign)
    return _summed(ctx, out, S)


# -- conversions with contact forms ------------------------------------------


def from_contact_form(rho: Form) -> VariationalMorphism:
    """Read a 1-contact (n-s)-horizontal form as a morphism.

    rho is cleared once, by N.  The coefficient c of omega^sigma_J ^ ds_block,
    J sorted, is shared out over the mult(J) orderings of J and the s!
    orderings of the block: with L the lcm of every mult(J), each ordering
    holds the one bucket (L / mult(J)) N c over the scale N s! L.
    """
    ctx = rho.ctx
    if rho.contact_degree() > 1:
        raise NotOneContact("form has contact components of degree >= 2")
    N, [part] = _cleared([p_k(rho, 1)])
    s = codegree(part)
    terms = []
    for block, contact in ds_parts(part).items():
        for w, c in contact.terms.items():
            [(_, sigma, J)] = _covectors(w)
            terms.append((block, sigma, J, c.terms, tuple_multiplicity(J)))
    L = math.lcm(*(mult for *_, mult in terms))
    acc: dict = {}
    for block, sigma, J, t, mult in terms:
        k = L // mult
        share = t if k == 1 else {m: v * k for m, v in t.items()}
        for Jord in set(itertools.permutations(J)):
            acc[(block, sigma, Jord)] = share
    return VariationalMorphism(ctx, s, N * math.factorial(s) * L, acc)


def to_contact_form(V: VariationalMorphism) -> Form:
    """The 1-contact form associated with a morphism: the sum of
    s! A^{block J}_sigma omega^sigma_J ^ ds_block, divided once.

    Div(<T|J^{r-1}Xi>) = J^r Xi _| d_H of minus the form of T.
    """
    n, sfact = V.ctx.n, math.factorial(V.s)
    acc: dict = {}
    for (block, sigma, J), t in V.acc.items():
        horiz, sign = _ds_wedge(n, block)
        if sign:
            w, flip = _insert(_bit(('w', sigma, tuple(sorted(J)))), horiz)
            _add_terms(acc, w, t, flip * sign * sfact)
    return _summed(V.ctx, acc, V.scale)


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
    symmetric in its rank strings whenever Q is.  The 1/(h+1) of each rank
    h is cleared by L, the lcm of every h+1: the result is over the scale
    of Q times L.
    """
    s = Q.s - 1
    ranks = {len(K) for _, _, K in Q.acc}
    L = math.lcm(*(h + 1 for h in ranks))
    acc: dict = {}
    _scatter_divergence(acc, Q.acc, s, {h: (s + 1) * (L // (h + 1)) for h in ranks})
    return VariationalMorphism(Q.ctx, s, Q.scale * L, acc)


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
            _derive_into(out.setdefault((b, sigma, K), {}), c, _d_rule(i), e * (h + 1))
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

    The family is held times s+1, which clears the 1/(s+1) of every
    antisymmetrization, so E is over the scale of V times s+1 and T over
    that times s+1 again.
    """
    s = V.s
    that: dict = {}
    layer: dict = {}
    for h in range(V.rank, 0, -1):
        acc = _antisymmetrized(V.acc, s, h)
        for (bp, sigma, L), c in layer.items():
            _derive_into(acc.setdefault((bp, sigma, L[:-1]), {}), c, _d_rule(L[-1]), -1)
        layer = {key: t for key, t in acc.items() if t}
        that.update(layer)

    acc = {key: {m: v * (s + 1) for m, v in t.items()} for key, t in V.acc.items()}
    for (bp, sigma, K), c in that.items():
        for p, i in enumerate(bp):
            b = bp[:p] + bp[p + 1:]
            eps = -1 if (s - p) % 2 else 1
            _derive_into(acc.setdefault((b, sigma, K), {}), c, _d_rule(i), -eps)
            _add_terms(acc, (b, sigma, (i,) + K), c, -eps)
    scale = V.scale * (s + 1)
    return SplitResult(VariationalMorphism(V.ctx, s, scale, acc),
                       VariationalMorphism(V.ctx, s + 1, scale * (s + 1), that))


def _symmetrized(V: VariationalMorphism) -> VariationalMorphism:
    """V averaged over the orderings of each rank string, which pairs as V
    does since d_J Xi is symmetric in J.  The coefficients at a rank string
    that are already equal at every one of its orderings keep their
    buckets.  The 1/|orderings| of the averages is cleared by L, their lcm:
    the result is over the scale of V times L."""
    kept, groups = {}, {}
    for key, c in V.acc.items():
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
    return VariationalMorphism(V.ctx, V.s, V.scale * L, acc)


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

    On integers, with E = acc / S and a = (s+1) S times the
    antisymmetrization of its rank h, T_{h-1} = h a / ((s+1) S (s+h)), and
    Div T_{h-1} is h/((s+1) S (s+h)) Div a, a of rank h-1: the weight -1 of
    ``_scatter_divergence``.  So each step takes E to (s+h) acc plus that
    scatter, over (s+h) S; T_{h-1}, whose rank strings no other step
    writes, goes over the last scale of E times s+1 at once.
    """
    s = V.s
    if s == 0:
        return split_like(V)
    E = _symmetrized(V)
    acc, scale = E.acc, E.scale
    r = V.rank
    last = scale * math.prod(range(s + 1, s + r + 1))
    T: dict = {}
    for h in range(r, 0, -1):
        a = _antisymmetrized(acc, s, h)
        scale *= s + h
        k = h * (last // scale)
        T.update((key, {m: v * k for m, v in t.items()}) for key, t in a.items())
        acc = {key: {m: v * (s + h) for m, v in t.items()} for key, t in acc.items()}
        _scatter_divergence(acc, a, s, {h - 1: -1})
    return SplitResult(VariationalMorphism(V.ctx, s, scale, acc),
                       VariationalMorphism(V.ctx, s + 1, last * (s + 1), T))


# -- the discrepancy of the two splittings --------------------------------------


@symexpr._memo_scope()
def alpha_discrepancy(V: VariationalMorphism):
    """alpha with T' = T + alpha and E' = E - D(alpha), at every rank and codegree.

    T', E' is the split-like decomposition and T, E the canonical splitting.
    Returns (alpha, Dalpha); Dalpha is the unique morphism whose pairing with
    J^r Xi is Div(<alpha|J^{r-1} Xi>).  At codegree 0 both vanish.
    """
    like = split_like(V)
    canon = like if V.s == 0 else split_canonical_codegree_s(V)
    alpha = like.boundary - canon.boundary
    return alpha, divergence(alpha)
