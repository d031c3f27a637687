"""Exterior algebra on jet prolongations in the contact basis.

A form is a sum of terms, each a scalar coefficient times a wedge of
distinct basis covectors.  Covectors are

* ``('dx', i)``       -- horizontal basis 1-form dx^i
* ``('w', sigma, J)`` -- contact basis 1-form omega^sigma_J, J sorted

and nothing else: the parser reads dy^sigma_J as omega^sigma_J +
y^sigma_{Jj} dx^j.

A wedge is one int, a bitmask over covectors.  Each covector takes a bit
of its own the first time it is used (``_bit``), from one table for the
whole process: ``_COVS`` maps a bit index back to its covector, and
``_CONTACT`` is the union of the contact bits.  The coefficient stored at
a mask is that of the wedge of its covectors in ascending bit order, and
the empty wedge is 0.  Every sign is a count of bits, as for the bitmap
basis blades of Dorst, Fontijne and Mann (*Geometric Algebra for Computer
Science*, 2007, 19.1): a covector with bit b joins a wedge w as
(-1)^popcount(w & (b - 1)) times the mask w | b (``_insert``), two wedges
that share a bit wedge to zero, and otherwise their product is signed by
counting, for each bit of the right factor, the bits of the left factor
above it (``_wedge_sign``).  Contact degree is the popcount of the contact
bits, so p_k is plain term selection.  Jet-projection pullbacks are
identity maps on this representation, so order bookkeeping only ever
increases.

Bit order is the order of first use, so it depends on what ran before.
The printers alone restore the fixed covector order, every dx before every
omega, dx sorted by i, omega sorted by (sigma, |J|, J): they decode each
mask and sort it with its sign, which keeps printed output and golden files
stable.  A mask means something only in the process that built it, so a
Form stays in its process: nothing pickles one.

The builders write into one running sum, a {wedge: {monomial: coefficient}}
map (``_add_terms``, ``_add_into``), and make a Form of it once at the end
(``_summed``); no builder chains Form additions, each of which copies its
left operand.  A product of coefficients (``wedge``, ``contract_prolonged``)
and a total derivative of one go straight into their bucket, through the
kernels ``symexpr._mul_into`` and ``symexpr._derive_into``, with no Scalar
made in between.  ``_derive_form_into`` is the one place a contact
covector is raised, omega^sigma_J to omega^sigma_Ji, its bit taken from a
map keyed by (bit, i): it adds d_i of a form to a running sum, and
``total_derivative_form``, ``d_H`` = sum over i of dx^i ^ d_i and every
trie sum go through it.  ``_cleared_terms`` clears the denominators of a family
of {key: Scalar} maps into integer running sums, and ``_cleared`` does so
for a family of forms, for the integer pipelines of ``interior_euler`` and
``lepage``, which divide once at the end (``_divided``, or ``_summed`` with
a divisor), and for ``varmorph``, whose morphisms are stored as such
integer sums over a scale and divided where they are read;
``total_derivative_sum`` sums the d_J of a family of forms over the trie of
the sorted J, each node's d_j going straight into its parent's running sum,
and divides the sum once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import symexpr
from .multiindex import sort_with_sign
from .symexpr import Scalar, _merge, _mul_into


@dataclass(frozen=True)
class Context:
    """Bundle dimensions and the declared working jet order."""

    n: int
    m: int
    r: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.r < 0:
            raise ValueError("need n >= 1, m >= 1, r >= 0")


# -- the covector table --------------------------------------------------------

_BITS: dict = {}    # covector -> its bit
_COVS: list = []    # bit index -> covector
_CONTACT = 0        # the union of the contact bits
_RAISED: dict = {}  # (bit of omega^sigma_J, i) -> bit of omega^sigma_Ji


def _bit(cov) -> int:
    """1 << the index of a covector, the index assigned on its first use."""
    b = _BITS.get(cov)
    if b is None:
        global _CONTACT
        b = _BITS[cov] = 1 << len(_COVS)
        _COVS.append(cov)
        if cov[0] == 'w':
            _CONTACT |= b
    return b


def _raised(b: int, i: int) -> int:
    """The bit of omega^sigma_Ji, for b the bit of omega^sigma_J."""
    r = _RAISED.get((b, i))
    if r is None:
        _, sigma, J = _COVS[b.bit_length() - 1]
        r = _RAISED[b, i] = _bit(('w', sigma, tuple(sorted(J + (i,)))))
    return r


def _covectors(w: int) -> tuple:
    """The covectors of the mask w, in ascending bit order."""
    out = []
    while w:
        low = w & -w
        out.append(_COVS[low.bit_length() - 1])
        w ^= low
    return tuple(out)


def _mask(covs) -> tuple:
    """(mask, sign): the wedge of covs, in their order, is sign times the
    wedge of the mask; sign is 0 when a covector repeats."""
    bits, sign = sort_with_sign(map(_bit, covs))
    return sum(bits), sign


def _insert(b: int, w: int):
    """(w | b, the sign of the covector with bit b wedged onto w against it).

    The sign is (-1)^popcount(w & (b - 1)), the bits of w below b, or 0
    when w already holds b.
    """
    if w & b:
        return w, 0
    return w | b, -1 if (w & (b - 1)).bit_count() & 1 else 1


def _wedge_sign(a: int, b: int) -> int:
    """The sign of the wedge a ^ b against the mask a | b, for disjoint
    masks: -1 to the number of bits of a above each bit of b."""
    above = 0
    while b:
        low = b & -b
        above += (a & -low).bit_count()
        b ^= low
    return -1 if above & 1 else 1


class Form:
    """Exterior-algebra element over a bundle context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict | None = None):
        self.ctx = ctx
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Form":
        return Form(ctx)

    @staticmethod
    def from_scalar(ctx: Context, c) -> "Form":
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        return Form(ctx, {0: c} if not c.is_zero() else {})

    @staticmethod
    def from_terms(ctx: Context, pairs) -> "Form":
        """The sum of c times the wedge of covs, over the (covs, c) in
        pairs, each covs a sequence of covectors in any order."""
        acc: dict = {}
        for covs, c in pairs:
            w, sign = _mask(covs)
            if sign:
                _add_terms(acc, w, c.terms, sign)
        return _summed(ctx, acc)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        out = Form(self.ctx, dict(self.terms))
        for w, c in other.terms.items():
            val = out.terms.get(w, Scalar.zero()) + c
            if val.is_zero():
                out.terms.pop(w, None)
            else:
                out.terms[w] = val
        return out

    def __neg__(self) -> "Form":
        return Form(self.ctx, {w: -v for w, v in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = c if isinstance(c, Scalar) else Scalar.from_fraction(c)
        if c.is_zero():
            return Form(self.ctx)
        if c.terms == {(): 1}:
            return Form(self.ctx, dict(self.terms))
        return Form(self.ctx, {w: v * c for w, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Form) and self.ctx.n == other.ctx.n \
            and self.ctx.m == other.ctx.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx.n, self.ctx.m, frozenset(self.terms)))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        from .printers import form_text
        return f"Form({form_text(self)})"

    def _check(self, other: "Form") -> None:
        if (self.ctx.n, self.ctx.m) != (other.ctx.n, other.ctx.m):
            raise ValueError("forms live over different bundle contexts")

    # -- grading -------------------------------------------------------------

    def contact_degree(self) -> int:
        contact = _CONTACT
        return max(((w & contact).bit_count() for w in self.terms), default=0)

    def degrees(self):
        """Set of (horizontal, contact) bidegrees present."""
        contact = _CONTACT
        return {((w & ~contact).bit_count(), (w & contact).bit_count()) for w in self.terms}

    def order(self) -> int:
        """Working jet order: highest |J| among covectors and coefficients."""
        r, mask = self.ctx.r, 0
        for w, c in self.terms.items():
            mask |= w
            r = max(r, c.max_jet_order())
        for cov in _covectors(mask & _CONTACT):
            r = max(r, len(cov[2]))
        return r


class GradingMismatch(ValueError):
    """The input form's degrees do not fit the operator applied to it."""


def codegree(rho: Form) -> int:
    """n minus the single horizontal degree of rho; 0 for the zero form."""
    hdegs = {h for h, _ in rho.degrees()}
    if len(hdegs) > 1:
        raise GradingMismatch(f"mixed horizontal degrees {hdegs}")
    return rho.ctx.n - hdegs.pop() if hdegs else 0


# -- basic builders ----------------------------------------------------------

def dx(ctx: Context, i: int) -> Form:
    if not 1 <= i <= ctx.n:
        raise ValueError(f"dx index {i} out of range 1..{ctx.n}")
    return Form(ctx, {_bit(('dx', i)): Scalar.one()})


def omega(ctx: Context, sigma: int, *J: int) -> Form:
    if not 1 <= sigma <= ctx.m:
        raise ValueError(f"fiber index {sigma} out of range 1..{ctx.m}")
    return Form(ctx, {_bit(('w', sigma, tuple(sorted(J)))): Scalar.one()})


def volume(ctx: Context) -> Form:
    return ds_block(ctx, ())


def ds_block(ctx: Context, block) -> Form:
    """ds_{i_1...i_s}: iterated contraction of the coordinate volume form.

    Antisymmetric in the block; zero when an index repeats or s > n.
    ds_() is the volume form itself, and for s = n the result is the scalar
    1 (an empty wedge), the degenerate regime used by mechanics (n = 1).
    """
    w, sign = _ds_wedge(ctx.n, tuple(block))
    return Form(ctx, {w: Scalar.from_fraction(sign)} if sign else {})


@functools.cache  # pure in (n, block), since bits never change once assigned
def _ds_wedge(n: int, block: tuple) -> tuple:
    """(w, sign) with ds_block = sign times the wedge of the mask w at base
    dimension n; sign 0 when it vanishes.

    w holds dx of the indices missing from the block, the rest.
    Contracting the block out of dx_block ^ dx_rest leaves dx_rest, with
    the rest in order, and dx_block ^ dx_rest is the volume form times the
    sign that sorts block + rest, so that is the sign, times the one that
    puts dx_rest in bit order; it is 0 unless block + rest orders to 1..n
    (an index out of range or repeated).
    """
    rest = tuple(i for i in range(1, n + 1) if i not in block)
    order, sign = sort_with_sign(block + rest)
    if order != tuple(range(1, n + 1)):
        return 0, 0
    w, order_sign = _mask([('dx', i) for i in rest])
    return w, sign * order_sign


def ds_parts(rho: Form) -> dict:
    """{block: contact part} with rho = sum of wedge(part, ds_block(ctx, block)).

    A stored term c [H | C], H its horizontal and C its contact bits, is
    c times the sign of [H] ^ [C] against [H | C] times (-1)^(|H| |C|)
    times [C] ^ [H], and [H] is ds_block of the block the complement of H
    times that ds_block's sign.
    """
    ctx, contact = rho.ctx, _CONTACT
    dxs = [(i, _bit(('dx', i))) for i in range(1, ctx.n + 1)]
    parts: dict = {}
    for w, c in rho.terms.items():
        H, C = w & ~contact, w & contact
        block = tuple(i for i, b in dxs if not H & b)
        _, sign = _ds_wedge(ctx.n, block)
        if H.bit_count() * C.bit_count() % 2:
            sign = -sign
        if sign * _wedge_sign(H, C) < 0:
            c = -c
        parts.setdefault(block, Form(ctx)).terms[C] = c
    return parts


def wedge(a: Form, b: Form) -> Form:
    """Graded anticommutative product."""
    a._check(b)
    if len(a.terms) == 1:
        [(wa, ca)] = a.terms.items()
        if wa and not wa & (wa - 1):
            # one covector joins each wedge of b; distinct wedges of b stay
            # distinct, so every product lands in a term of its own
            out = {}
            for wb, cb in b.terms.items():
                w, sign = _insert(wa, wb)
                if sign:
                    c = ca * cb
                    out[w] = c if sign == 1 else -c
            return Form(a.ctx, out)
    acc: dict = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            if not wa & wb:
                _mul_into(acc.setdefault(wa | wb, {}), ca.terms, cb.terms, _wedge_sign(wa, wb))
    return _summed(a.ctx, acc)


# -- running sums ----------------------------------------------------------------


def _add_terms(acc: dict, w: int, terms: dict, c: int = 1) -> None:
    """acc[w] += c times the scalar with these terms, w a mask.

    An emptied bucket stays in acc as {}; a zero weight adds nothing.
    """
    if not c:
        return
    bucket = acc.get(w)
    if bucket is None:
        acc[w] = dict(terms) if c == 1 else {m: v * c for m, v in terms.items()}
    else:
        _merge(bucket, terms, c)


def _add_into(acc: dict, rho: Form, c: int = 1) -> None:
    """acc += c rho in place, for acc a {wedge: {monomial: coefficient}} map."""
    for w, s in rho.terms.items():
        _add_terms(acc, w, s.terms, c)


def _summed(ctx: Context, acc: dict, D: int = 1) -> Form:
    """The form held by a {wedge: {monomial: coefficient}} running sum,
    divided by D."""
    if D != 1:
        quotients: dict = {}
        return Form(ctx, {w: Scalar(_divided(t, D, quotients)) for w, t in acc.items() if t})
    return Form(ctx, {w: Scalar(t) for w, t in acc.items() if t})


def _cleared_terms(maps) -> tuple:
    """(D, [D times each map]) for maps from keys to Scalars, D the lcm of
    the denominators of every coefficient; each D map is a {key: {monomial:
    int}} running sum of new dicts, free to be added into."""
    maps = list(maps)
    D = math.lcm(*{v.denominator for terms in maps
                   for c in terms.values() for v in c.terms.values()})
    return D, [{key: {m: v.numerator * (D // v.denominator) for m, v in c.terms.items()}
                for key, c in terms.items()} for terms in maps]


def _cleared(forms) -> tuple:
    """(D, [D rho for each rho in forms]), D the lcm of the denominators of
    every coefficient, so that each D rho has int coefficients."""
    forms = list(forms)
    D, accs = _cleared_terms(rho.terms for rho in forms)
    return D, [_summed(rho.ctx, acc) for rho, acc in zip(forms, accs)]


def _divided(terms: dict, D: int, quotients: dict) -> dict:
    """{monomial: coefficient / D}; a quotient that is whole stays an int.

    ``quotients`` holds the quotients already taken by D in one pass over a
    running sum: its few distinct values repeat over many monomials, so
    each Fraction is made once per pass.
    """
    if D == 1:
        return terms
    out = {}
    for m, v in terms.items():
        q = quotients.get(v)
        if q is None:
            q = quotients[v] = v // D if type(v) is int and not v % D else Fraction(v, D)
        out[m] = q
    return out


# -- contact decomposition -----------------------------------------------------

def p_k(rho: Form, k: int) -> Form:
    """The k-contact component: terms with exactly k omega factors."""
    contact = _CONTACT
    return Form(rho.ctx, {w: c for w, c in rho.terms.items()
                          if (w & contact).bit_count() == k})


# -- differentials -------------------------------------------------------------

def exterior_d(rho: Form) -> Form:
    """Exterior derivative d = d_H + d_C."""
    return d_H(rho) + d_C(rho)


def total_derivative_form(rho: Form, i: int) -> Form:
    """d_i on forms: a degree-0 derivation with d_i dx^j = 0, d_i w^s_J = w^s_Ji."""
    acc: dict = {}
    _derive_form_into(acc, ((w, c.terms) for w, c in rho.terms.items()), i)
    return _summed(rho.ctx, acc)


def _derive_form_into(acc: dict, items, i: int) -> None:
    """acc += d_i of the form with these (wedge, terms) items, acc a
    {wedge: {monomial: coefficient}} running sum.

    Each coefficient's d_i goes straight into its bucket
    (``symexpr._derive_into``).  The raised omega, bit r, takes the slot of
    omega^s_J, bit b, and moves to its place among the rest: the sign is -1
    to the bits of w below b plus the bits of w - b below r.
    """
    rule = symexpr._d_rule(i)
    contact = _CONTACT
    for w, t in items:
        if not t:
            continue
        symexpr._derive_into(acc.setdefault(w, {}), t, rule)
        bits = w & contact
        while bits:
            b = bits & -bits
            bits ^= b
            r = _raised(b, i)
            rest = w ^ b
            if not rest & r:
                odd = (w & (b - 1)).bit_count() + (rest & (r - 1)).bit_count()
                _add_terms(acc, rest | r, t, -1 if odd & 1 else 1)


def total_derivative_form_multi(rho: Form, J) -> Form:
    for j in J:
        rho = total_derivative_form(rho, j)
    return rho


def total_derivative_sum(ctx: Context, parts: dict, D: int = 1) -> Form:
    """Sum over sorted J of d_J parts[J], divided by D, for parts a map from
    sorted J to {wedge: {monomial: coefficient}} running sums; parts is
    consumed.

    Horner's rule over the trie of the J: Y(p) = X_p + sum over j >= last(p)
    of d_j Y(p + j), so each trie node takes one form total derivative, of
    the sum of its subtree, which goes straight into its parent's running
    sum (``_derive_form_into``).  The deepest nodes go first, and each
    node's sum is popped as soon as its derivative has gone to its parent.
    d_j is linear, so the root's sum alone is divided.
    """
    for depth in range(max(map(len, parts), default=0), 0, -1):
        for J in [J for J in parts if len(J) == depth]:
            _derive_form_into(parts.setdefault(J[:-1], {}), parts.pop(J).items(), J[-1])
    return _summed(ctx, parts.pop((), {}), D)


def d_H(rho: Form) -> Form:
    """Horizontal differential, sum over k of p_k d p_k: only that half of d.

    d_H = sum over i of dx^i ^ d_i, with d_i the total derivative of forms
    (``total_derivative_form``).  Each term c w gives (d_i c) dx^i ^ w + c d(w),
    with d(dx^i) = 0 and d(omega^sigma_J) = dx^j ^ omega^sigma_Jj, and moving
    that dx^j from the slot of omega^sigma_J to the front cancels the slot's
    sign.  A term that already holds dx^i drops out of the i-th summand, so
    only the others are differentiated.  d_H keeps the contact degree, and
    no jet-coordinate partial of c is taken.
    """
    ctx = rho.ctx
    acc: dict = {}
    for i in range(1, ctx.n + 1):
        b = _bit(('dx', i))
        part: dict = {}
        _derive_form_into(part, ((w, c.terms) for w, c in rho.terms.items() if not w & b), i)
        for w, t in part.items():
            w1, sign = _insert(b, w)
            _add_terms(acc, w1, t, sign)
    return _summed(ctx, acc)


def d_C(rho: Form) -> Form:
    """Contact differential, sum over k of p_{k+1} d p_k: only that half of d.

    Each term c w gives dc/dy^sigma_J omega^sigma_J ^ w, read off one
    gradient pass over c; no total derivative is taken.
    """
    return wedge_gradients(rho.ctx, {w: symexpr.gradient(c) for w, c in rho.terms.items()})


def wedge_gradients(ctx: Context, grads: dict) -> Form:
    """Sum over {w: gradient of c} of dc/dy^sigma_J omega^sigma_J ^ w: d_C of sum c w."""
    acc: dict = {}
    for w, grad in grads.items():
        for (_, sigma, J), dc in grad.items():
            w1, sign = _insert(_bit(('w', sigma, J)), w)
            if sign:
                _add_terms(acc, w1, dc.terms, sign)
    return _summed(ctx, acc)


# -- contractions ---------------------------------------------------------------

def _contract(rho: Form, cov) -> Form:
    """Formal interior product with the vector dual to the basis covector
    cov, signed -1 to the bits below it; iota_a is cov = ('dx', a)."""
    # distinct wedges holding cov stay distinct without it: no sum to run
    b = _bit(cov)
    out = {}
    for w, c in rho.terms.items():
        if w & b:
            out[w ^ b] = -c if (w & (b - 1)).bit_count() & 1 else c
    return Form(rho.ctx, out)


def contract_omega(rho: Form, sigma: int, J) -> Form:
    """Formal interior product with the vector dual to omega^sigma_J."""
    return _contract(rho, ('w', sigma, tuple(sorted(J))))


def contract_prolonged(rho: Form, xi: dict) -> Form:
    """Interior product with the prolongation of a vertical field.

    ``xi`` maps sigma to the component Xi^sigma (a Scalar in x, y); the
    prolongation pairs as omega^sigma_J(J^r Xi) = d_J Xi^sigma and kills dx.
    """
    acc: dict = {}
    cache: dict = {}
    contact = _CONTACT
    for w, c in rho.terms.items():
        bits = w & contact
        while bits:
            b = bits & -bits
            bits ^= b
            _, sigma, J = _COVS[b.bit_length() - 1]
            if sigma not in xi:
                continue
            key = (sigma, J)
            if key not in cache:
                cache[key] = symexpr.total_derivative_multi(xi[sigma], J).terms
            _mul_into(acc.setdefault(w ^ b, {}), c.terms, cache[key],
                      -1 if (w & (b - 1)).bit_count() & 1 else 1)
    return _summed(rho.ctx, acc)
