"""Lepage equivalents: Poincare-Cartan forms, the residual-operator
recurrence, and the closed Krupka-Betounes formulas (first and second order).

The recurrence starts at rho_0 = lambda and at each contact degree q >= 1
takes rho_q = rho_{q-1} - p_q R(d rho_{q-1}), with the residual operator
at codegree q - 1; its first step rho_1 is the Poincare-Cartan form theta.
One ``_step`` builds every member.  R reads only the q-contact part of its
input, so only the contact half of d is built: rho_{q-1} has contact degree
<= q - 1, while d_H keeps the contact degree and d_C raises it by one, so
p_q(d rho_{q-1}) = d_C p_{q-1} rho_{q-1} (at q = 1, d lambda = d_C lambda):
the jet-coordinate partials of each coefficient, each wedged with a new
omega.  No total derivative is taken there.  Each step runs on integers:
p_{q-1} rho_{q-1} is cleared by N, the lcm of its denominators, the
gradient, eta and residual are built from N p_{q-1} rho_{q-1}, and since R
is linear the correction is divided by N once.

The recurrence runs in the formal ring (``symexpr._formal_scope``): each
d_I of an opaque atom stays one formal atom D_I f, the gradients of the
q >= 2 steps take partials of those atoms by the commutator rule of
``symexpr``, and theta is cross-checked against the chart form built
formally too, and ``_kb`` (``jetform kb``) compares the formal closed tower
with the formal terminal.  The four self-checks (eta recomposition, the xi
rebuild and these two cross-checks) and ``lepage_check`` are decided by
``interior_euler._mismatch``, the one comparison of two forms, which
expands only a difference that is not literally zero.  ``_lepage_pairs``
holds the two pairs of the Lepage check, built in the caller's ring, so a
formal chain member is checked formally (``verify kb-first``).
``poincare_cartan``, ``rossi_recurrence`` and ``_kb`` expand each form once,
as they return it, so no formal atom leaves the module.

The eta decomposition feeding R is not unique for q >= 2 and the choice
matters.  At first order the canonical 1/k-contraction eta is the right
one: the chain then terminates on the Krupka-Betounes equivalent (in
particular the equivalent of a null Lagrangian comes out closed).  At
second order the canonical eta does not reproduce the known expansion;
there the eta family is built by provenance: a q-contact term of
d rho_{q-1} whose new contact factor (the one generated by differentiating
the coefficient) is first-order leads the decomposition when the remaining
factors still carry a first-order contact form, and every other term leads
on its first contact factor of lowest jet order: an order-zero one, where
there is one, keeps it out of the residual.  At q = 1 the new factor is the
only one, so the provenance eta is the canonical one.

The closed formulas are truncations of one pure-contact tower, built by
``_closed_equivalent(lam, slots)`` from one momentum family f^J_sigma
(``_momentum``, public as ``Lagrangian.momentum``): ``slots[h]`` counts the
slots of the tower led by omega^sigma_{J'} with |J'| = h.  The
Poincare-Cartan form is (1,) * r, the first-order Krupka-Betounes
equivalent (n,), and the second-order plain and generalized variants (1, n)
and (n, n).  Over fully ordered slot tuples, a q-fold pure-contact
correction built from a slot-symmetric coefficient collapses q! equal
orderings, so the familiar 1/q! (taken per sorted slot tuple) becomes
1/(q!)^2 in the ordered sum; mixed sums whose slots are distinguishable keep
their literal weight.  The builder sums over sorted sets of the q - 1 plain
slots instead, each standing for its (q-1)! orderings, which add equal
terms.  Every momentum comes from one gradient of the density, each partial
chain extends the chain of its slot set's prefix, and the tower is one
integer running sum, divided once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import symexpr
from .forms import (Context, Form, _add_terms, _bit, _cleared, _covectors, _ds_wedge,
                    _insert, _mask, _summed, _wedge_sign, d_C, d_H, p_k, volume,
                    wedge_gradients)
from .interior_euler import _expanded, _formal_residual, _mismatch, interior_euler
from .multiindex import tuple_multiplicity
from .symexpr import Scalar, _derive_into, _merge


class UnsupportedOrder(ValueError):
    """Lagrangians above second order are out of scope."""


@dataclass
class Lagrangian:
    """A first- or second-order Lagrangian density over a bundle context."""

    ctx: Context
    order: int
    density: Scalar

    def __post_init__(self):
        if self.order not in (1, 2):
            raise UnsupportedOrder(f"order {self.order} not supported")
        if self.density.max_jet_order() > self.order:
            raise ValueError("density uses jet coordinates above the declared order")

    def form(self) -> Form:
        return volume(self.ctx).scale(self.density)

    def momentum(self, sigma: int, J: tuple) -> Scalar:
        """f^J_sigma, the sum over ordered K of (-1)^|K| d_K p^{JK}_sigma
        (``_momentum``), from a gradient of the density taken for this call;
        a caller after many momenta takes one gradient for all of them."""
        return _momentum(self, symexpr.gradient(self.density), sigma, J)


def _momentum(lam: Lagrangian, grad: dict, sigma: int, J: tuple) -> Scalar:
    """f^J_sigma: sum over ordered K, |J|+|K| <= r, of (-1)^|K| d_K p^{JK}_sigma.

    p^{JK}_sigma is dL/dy^sigma_{JK} over the tuple multiplicity of the
    sorted key, read off ``grad``, the ``symexpr.gradient`` of the density.
    J = () gives E_sigma(L); at order 2, (i,) is p^i - d_k p^{ik}.  d_K and
    the key depend only on sorted K, so the sum runs over sorted K, each
    weighted by its multiplicity.  The sum is one running sum, and the last
    d_k of each term goes straight into it with the weight.
    """
    out: dict = {}
    for K in symexpr.jet_keys(lam.ctx.n, lam.order - len(J)):
        key = tuple(sorted(J + K))
        base = grad.get(('y', sigma, key))
        if base is None:
            continue
        weight = Fraction((-1) ** len(K) * tuple_multiplicity(K), tuple_multiplicity(key))
        if weight.denominator == 1:
            weight = weight.numerator
        if K:
            inner = symexpr.total_derivative_multi(base, K[:-1])
            _derive_into(out, inner.terms, symexpr._d_rule(K[-1]), weight)
        else:
            _merge(out, base.terms, weight)
    return Scalar(out)


@dataclass
class LepageChain:
    forms: list

    @property
    def terminal(self) -> Form:
        return self.forms[-1]


def generic_lagrangian(ctx: Context, order: int, name: str = "L") -> Lagrangian:
    """A Lagrangian with a fully generic opaque density."""
    return Lagrangian(ctx, order, symexpr.opaque(name, n=ctx.n, m=ctx.m, order=order))


# -- Poincare-Cartan -----------------------------------------------------------


def poincare_cartan_closed(lam: Lagrangian) -> Form:
    """The chart form L ds + f^{i J'}_sigma omega^sigma_{J'} ^ ds_i: slots (1,) * r."""
    return _closed_equivalent(lam, (1,) * lam.order)


@symexpr._memo_scope()
def poincare_cartan(lam: Lagrangian) -> Form:
    """theta = rho_1 = lambda - p_1 R(d lambda), cross-checked against the chart form."""
    return _expanded(_theta(lam))


def _theta(lam: Lagrangian) -> Form:
    """The formal theta, checked against the chart form built formally."""
    with symexpr._formal_scope():
        theta = _step(lam, lam.form(), 1)
        if failure := _mismatch(theta, poincare_cartan_closed(lam)):
            raise AssertionError("residual route disagrees with the chart "
                                 f"Poincare-Cartan form; decomposition bug; {failure}")
    return theta


# -- the recurrence -------------------------------------------------------------


def _provenance_eta(ctx: Context, grads: dict) -> dict:
    """Second-order eta family for p_q(d rho_{q-1}); see the module docstring.

    ``grads`` maps each wedge w of p_{q-1} rho_{q-1} to the gradient of its
    coefficient, the same pass that builds p_q(d rho_{q-1}).  The lead of a
    term new ^ w is the contact factor of lowest jet order; ties go to the
    new omega, then to the factor of w first in printed order, (sigma, J).
    Each eta is a running sum until the end.
    """
    acc: dict = {}  # (sigma, J) -> {wedge: {monomial: coefficient}}
    for w, grad in grads.items():
        factors = [(len(cov[2]), cov[1], cov[2]) for cov in _covectors(w) if cov[0] == 'w']
        low = min(factors, default=None)
        raised = any(h for h, _, _ in factors)
        for (_, nu, K), dc in grad.items():
            if low is None or len(K) <= low[0] or len(K) == 1 and raised:
                # new leads and the rest is w, even when w holds new: such
                # a term wedges to zero, but it changes R
                _add_terms(acc.setdefault((nu, K), {}), w, dc.terms)
                continue
            # new ^ [w] = -(-1)^pos lead ^ new ^ [w - lead], pos the bits
            # of w below the lead's
            lead = _bit(('w', low[1], low[2]))
            rest, sign = _insert(_bit(('w', nu, K)), w ^ lead)
            if sign:
                if not (w & (lead - 1)).bit_count() & 1:
                    sign = -sign
                _add_terms(acc.setdefault(low[1:], {}), rest, dc.terms, sign)
    etas = {key: _summed(ctx, v) for key, v in acc.items()}
    return {key: eta for key, eta in etas.items() if not eta.is_zero()}


def _step(lam: Lagrangian, prev: Form, q: int) -> Form:
    """rho_q = rho_{q-1} - p_q R(d rho_{q-1}), for rho_{q-1} = ``prev``.

    One gradient pass over N p_{q-1} rho_{q-1}, N the lcm of its
    denominators, builds N p_q(d rho_{q-1}) and feeds the provenance eta;
    R is linear, so the residual divides the correction by N in its one
    division.  The step runs in the formal ring: ``prev`` and the result
    may hold formal atoms D_I f.
    """
    ctx = lam.ctx
    with symexpr._formal_scope():
        N, [part] = _cleared([p_k(prev, q - 1)])
        grads = {w: symexpr.gradient(c) for w, c in part.terms.items()}
        diff = wedge_gradients(ctx, grads)
        if diff.is_zero():
            return prev
        etas = None if lam.order == 1 else _provenance_eta(ctx, grads)
        return prev - p_k(_formal_residual(diff, q, etas, N), q)


def _chain(lam: Lagrangian) -> list:
    """The formal members rho_1 .. rho_n: theta, then one ``_step`` each."""
    chain = [_theta(lam)]
    for q in range(2, lam.ctx.n + 1):
        chain.append(_step(lam, chain[-1], q))
    return chain


@symexpr._memo_scope()
def rossi_recurrence(lam: Lagrangian) -> LepageChain:
    """The full chain rho_1 .. rho_n of residual-operator corrections.

    rho_1 is the Poincare-Cartan form, and each later member is one
    ``_step`` from the one before.  The chain is built formally
    (``_chain``), and each member is expanded once, as it is returned.
    """
    return LepageChain([_expanded(rho) for rho in _chain(lam)])


# -- closed forms ----------------------------------------------------------------


@symexpr._memo_scope()
def _closed_equivalent(lam: Lagrangian, slots: tuple) -> Form:
    """L plus the pure-contact tower truncated at the given slot counts.

    ``slots[h]`` is the slot count of the tower whose lead is
    omega^sigma_{J'} with |J'| = h.  For Q = 1 .. slots[h] that tower adds,
    over sorted sets of Q - 1 plain slot pairs (sigma_1, i_1) ..
    (sigma_{Q-1}, i_{Q-1}) with distinct sigma and distinct i, and over a
    lead (sigma_Q, i_Q) with ordered J',

        (Q-1)! w_h(Q) [d/dy^{sigma_1}_{i_1} .. d/dy^{sigma_{Q-1}}_{i_{Q-1}} f^{i_Q J'}_{sigma_Q}]
               omega^{sigma_1} ^ .. ^ omega^{sigma_{Q-1}} ^ omega^{sigma_Q}_{J'}
               ^ ds_{i_1 .. i_Q},

    with f = ``_momentum``, w_0(Q) = (Q!)^-2 and w_h(Q) = (Q!)^-1 for
    h >= 1: a raised lead is distinguishable, so it keeps the literal
    weight.  The (Q-1)! orderings of a slot set add equal terms: a
    permutation of the plain slots permutes their omegas and their ds
    indices alike, so its sign enters twice, and the partials commute.  A
    slot set that repeats a sigma or an i adds zero.  The chain member
    rho_q is the tower at (q,) (order 1), (1, q) (order 2).

    One gradient of the density gives every momentum, and each partial
    chain extends the chain of its slot set's prefix, so one partial is
    taken per (momentum, slot set).  The sum runs on integers: every
    weight is cleared by L, the lcm of their denominators, each term goes
    into one running sum, and the sum is divided by L once.
    """
    ctx = lam.ctx
    n = ctx.n
    slot_pairs = list(itertools.product(range(1, ctx.m + 1), range(1, n + 1)))
    weights = {(h, q): Fraction(math.factorial(q - 1), math.factorial(q) ** (2 if h == 0 else 1))
               for h, top in enumerate(slots) for q in range(1, top + 1)}
    L = math.lcm(*(w.denominator for w in weights.values()))
    acc: dict = {}
    vol, vol_sign = _ds_wedge(n, ())
    _add_terms(acc, vol, lam.density.terms, vol_sign * L)
    grad = symexpr.gradient(lam.density)
    # (sigma, J, slot set) -> the partials of f^J_sigma in the slots; the
    # empty set holds f^J_sigma itself, which depends on the sorted J only
    chains: dict = {}
    for h, top in enumerate(slots):
        leads = []
        for sigma, i in slot_pairs:
            for Jp in itertools.product(range(1, n + 1), repeat=h):
                key = (sigma, tuple(sorted((i,) + Jp)))
                base = chains.get(key + ((),))
                if base is None:
                    base = chains[key + ((),)] = _momentum(lam, grad, *key)
                if base.terms:
                    leads.append((i, _bit(('w', sigma, tuple(sorted(Jp)))), key))
        for q in range(1, top + 1):
            weight = (weights[h, q] * L).numerator
            for pairs in itertools.combinations(slot_pairs, q - 1):
                plain, plain_sign = _mask(('w', sigma, ()) for sigma, _ in pairs)
                ks = tuple(i for _, i in pairs)
                if not plain_sign or len(set(ks)) < len(ks):
                    continue  # a repeated omega or ds index: the term is zero
                if q % 2 == 0:
                    plain_sign = -plain_sign  # plain ^ lead = -lead ^ plain
                for i, lead, key in leads:
                    if lead & plain or i in ks:
                        continue
                    # every prefix of a kept slot set was kept for this lead
                    # one q earlier, so its chain is there
                    coeff = chains.get(key + (pairs,))
                    if coeff is None:
                        prev = chains[key + (pairs[:-1],)]
                        sigma, j = pairs[-1]
                        coeff = chains[key + (pairs,)] = (
                            symexpr.partial(prev, ('y', sigma, (j,))) if prev.terms else prev)
                    if not coeff.terms:
                        continue
                    horiz, sign = _ds_wedge(n, ks + (i,))
                    w, lead_sign = _insert(lead, plain)
                    sign *= plain_sign * lead_sign * _wedge_sign(w, horiz)
                    _add_terms(acc, w | horiz, coeff.terms, sign * weight)
    return _summed(ctx, acc, L)


def krupka_betounes_first(lam: Lagrangian) -> Form:
    """First-order equivalent: pure-contact corrections from the L-Hessians."""
    if lam.order != 1:
        raise UnsupportedOrder("the first-order closed form needs order 1")
    return _closed_equivalent(lam, (lam.ctx.n,))


def kb_second_order(lam: Lagrangian, variant: str = "plain") -> Form:
    """Second-order closed forms.

    The plain variant carries the mixed second-order momenta; the
    generalized variant adds the telescoped first-momentum partials and
    restricts to the first-order equivalent when the density has no
    second-order coordinates.
    """
    if lam.order != 2:
        raise UnsupportedOrder("the second-order closed forms need order 2")
    if variant not in ("plain", "generalized"):
        raise ValueError(f"unknown variant {variant!r}")
    n = lam.ctx.n
    return _closed_equivalent(lam, (n if variant == "generalized" else 1, n))


@symexpr._memo_scope()
def _kb(lam: Lagrangian, variant: str = "plain") -> Form:
    """The closed equivalent, built formally, checked by ``_mismatch`` against
    the formal terminal rho_n where it is one (first order, or the plain
    variant), and expanded once, as it is returned."""
    with symexpr._formal_scope():
        tower = krupka_betounes_first(lam) if lam.order == 1 else kb_second_order(lam, variant)
    if (lam.order == 1 or variant == "plain") and (failure := _mismatch(_chain(lam)[-1], tower)):
        raise AssertionError(f"recurrence and closed form disagree; {failure}")
    return _expanded(tower)


# -- source forms -----------------------------------------------------------------


@symexpr._memo_scope()
def euler_lagrange(lam: Lagrangian) -> Form:
    """The source form I(d lambda): omega^sigma ^ E_sigma(L) ds; d lambda = d_C lambda."""
    return interior_euler(d_C(lam.form()), 1)


@dataclass
class LepageReport:
    """Each field is None when its pair of ``_lepage_pairs`` holds, else
    ``_mismatch``'s text naming the smallest differing term."""

    horizontal: str | None
    source: str | None

    @property
    def ok(self) -> bool:
        return self.horizontal is None and self.source is None


def _lepage_pairs(rho: Form, lam: Lagrangian) -> list:
    """(label, got, want) for p_0 rho = lambda and p_1 d rho = E(lambda).

    d = d_H + d_C, d_H keeps the contact degree and d_C raises it by one, so
    p_1 d rho = d_C p_0 rho + d_H p_1 rho: only those two halves are built.
    Both sides are built in the caller's ring: under ``_formal_scope`` a
    formal rho is compared with the formal lambda and E(lambda).
    """
    rho0 = p_k(rho, 0)
    return [("lepage horizontal", rho0, lam.form()),
            ("lepage source", d_C(rho0) + d_H(p_k(rho, 1)), euler_lagrange(lam))]


@symexpr._memo_scope()
def lepage_check(rho: Form, lam: Lagrangian) -> LepageReport:
    """Whether p_0(rho) is the Lagrangian and p_1(d rho) its source form,
    each pair of ``_lepage_pairs`` decided by ``_mismatch``."""
    return LepageReport(*(_mismatch(got, want) for _, got, want in _lepage_pairs(rho, lam)))
