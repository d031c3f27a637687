"""Interior Euler operator, integration by parts, and the residual operator.

The pipeline shared by every operator here:

1. write the k-contact part of a form as a sum over contact covectors,
   p_k rho = sum over (sigma, J) of omega^sigma_J ^ eta^J_sigma;
2. telescope the eta family into xi coefficients so that
   p_k rho = sum over multi-indices I of d_I(omega^sigma ^ xi^I_sigma).
   The telescope runs on integers: with D the lcm of the denominators of
   every eta coefficient, and sums over sorted multi-indices,

       D mult(I) xi^I = sum over sorted J within K of
                        (-1)^|J| prod_a C(K_a, J_a) d_J(D eta^K),   K = I + J,

   where K_a counts the index a in K.  This equals the sum over ordered J
   of (-1)^|J| C(|K|, |J|) d_J eta^K / mult(K), the ordered-convention
   xi^I, so every stored coefficient is an int; only the rebuild and the
   residual divide, each once, at its trie root.  D and the cleared etas
   come from ``forms._cleared``.
   The exactness self-check rebuilds p_k rho as the sum over sorted I of
   d_I(omega ^ D mult(I) xi^I) by Horner's rule over the trie of the I
   (``forms.total_derivative_sum``), one form total derivative per node,
   divided by D once, at the trie root.
   The telescope and the rebuild run in a ``symexpr._formal_scope``: each
   d_I of an opaque atom f stays one formal atom D_I f, so the stored
   family is formal.  The rebuilt form is compared with p_k rho by
   ``_mismatch``, the one comparison of two forms in the library: it
   decides every self-check, the Lepage check and every ``verify`` report.
   A literal equality passes, and otherwise the difference is expanded to
   the chain-rule normal form and compared with zero;
3. assemble the residual operator from the xi family by the contraction
   iota_a dual to dx^a (``_residual``), its total derivatives again summed
   over a trie, formally; ``residual`` expands it once, and the Lepage
   recurrence, whose input is formal too, keeps it formal.  One operator
   serves every codegree s, the top forms being s = 0.

Multi-index sums follow the ordered-tuple convention; eta is stored per
sorted key (the basis coefficient), and mult(J) = ``tuple_multiplicity(J)``
converts between the two.  The eta decomposition is not unique for
k >= 2; the default is the 1/k-weighted formal contraction, and every
consumer validates recomposition instead of relying on uniqueness.  The
Lepage recurrence hands ``_formal_residual`` its own eta family, built from
term provenance, as a dict; ``eta_decompose`` validates it like any other.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

# GradingMismatch is re-exported for callers that import it from here
from .forms import (Form, GradingMismatch, _add_into, _cleared, _contract,
                    _covectors, _summed, codegree, contract_omega, omega, p_k,
                    total_derivative_form, total_derivative_sum, wedge)
from .multiindex import tuple_multiplicity
from .symexpr import Scalar, _formal_scope, _memo_scope, expand


class RecompositionFailure(AssertionError):
    """The eta family does not rebuild p_k rho (a grading bug)."""


class ExpansionMismatch(AssertionError):
    """The telescoped xi family does not rebuild p_k rho (a multiplicity bug)."""


def _mismatch(got: Form, want: Form) -> str | None:
    """None when got == want, else the smallest term of the expanded
    difference printed from both sides: the one decision of every
    self-check, of ``lepage.lepage_check`` and of every ``verify`` report.

    A literal equality holds; so does a difference that expands to zero.
    Formal and chain-rule atoms are not algebraically independent, so a
    formal nonzero proves nothing, but expansion is a ring homomorphism
    that commutes with d_i and with every partial, so the expanded
    difference decides the same equality as expanding both sides.  Terms
    are ranked by wedge length, monomial degree, then printed text.
    """
    if got == want:
        return None
    diff = _expanded(got - want)
    if diff.is_zero():
        return None
    from .printers import form_text  # only a failing check prints
    ctx = got.ctx
    got, want = _expanded(got), _expanded(want)

    def term(form, w, mono):
        c = form.terms.get(w, Scalar.zero()).terms.get(mono, 0)
        return form_text(Form(ctx, {w: Scalar({mono: c})} if c else {}))

    w, mono = min(((w, mono) for w, s in diff.terms.items() for mono in s.terms),
                  key=lambda wm: (wm[0].bit_count(), sum(k for _, k in wm[1]),
                                 term(diff, *wm)))
    return (f"smallest differing term: rebuilt {term(got, w, mono)}, "
            f"expected {term(want, w, mono)}")


@dataclass
class EtaDecomposition:
    """p_k rho = sum over sorted (sigma, J) of omega^sigma_J ^ eta^J_sigma."""

    ctx: object
    k: int
    s: int
    r: int
    etas: dict  # (sigma, J sorted) -> (k-1)-contact (n-s)-horizontal Form

    def recompose(self) -> Form:
        acc: dict = {}
        for (sigma, J), eta in self.etas.items():
            _add_into(acc, wedge(omega(self.ctx, sigma, *J), eta))
        return _summed(self.ctx, acc)


def _contact_keys(part: Form) -> set:
    """The (sigma, J) of every contact covector omega^sigma_J in a form."""
    mask = 0
    for w in part.terms:
        mask |= w
    return {(cov[1], cov[2]) for cov in _covectors(mask) if cov[0] == 'w'}


def eta_decompose(rho: Form, k: int, etas: dict | None = None) -> EtaDecomposition:
    """Decompose p_k rho over leading contact covectors.

    The canonical choice is eta^J_sigma = (1/k) dy^sigma_J-contraction of
    p_k rho; a caller may supply its own family, which is then validated.
    """
    ctx = rho.ctx
    part = p_k(rho, k)
    s = codegree(part)
    if k == 0:
        return EtaDecomposition(ctx, 0, s, 0, {})
    if etas is None:
        etas = {}
        weight = Scalar.from_fraction(Fraction(1, k))
        for sigma, J in sorted(_contact_keys(part)):
            eta = contract_omega(part, sigma, J).scale(weight)
            if not eta.is_zero():
                etas[(sigma, J)] = eta
    r = max((len(J) for _, J in etas), default=0)
    dec = EtaDecomposition(ctx, k, s, r, etas)
    if failure := _mismatch(dec.recompose(), part):
        raise RecompositionFailure(f"eta family does not recompose p_k rho (k={k}, s={s}, "
                                   f"D={_cleared(etas.values())[0]}); {failure}")
    return dec


@dataclass
class XiFamily:
    """The telescoped family on integers, and its expanded view.

    ``int_xi`` is the formal integer family: it maps (sigma, I sorted) to
    D mult(I) xi^I_sigma, every coefficient an int, with D =
    ``denominator``, and its coefficients may hold formal atoms D_I f
    (``symexpr``), so a form in it may expand to zero.  Only the residual
    reads it.  Built on first read and expanded, with the entries that
    expand to zero dropped, ``xi`` is the family in the ordered convention
    of the module docstring; ``verify.check_prop_div`` reads its chi table
    off it (``forms.ds_parts``).
    """

    ctx: object
    k: int
    s: int
    r: int
    denominator: int
    int_xi: dict

    @cached_property
    def xi(self) -> dict:
        with _memo_scope():  # one memo of expansions for the whole family
            expanded = {key: _expanded(f) for key, f in self.int_xi.items()}
        return {key: f.scale(Fraction(1, self.denominator * tuple_multiplicity(key[1])))
                for key, f in expanded.items() if not f.is_zero()}


def _expanded(rho: Form) -> Form:
    """rho with every formal atom expanded (``symexpr.expand``)."""
    return Form(rho.ctx, {w: c for w, s in rho.terms.items()
                          if not (c := expand(s)).is_zero()})


def _telescope(acc: dict, sigma: int, K: tuple, eta: Form) -> None:
    """Add (-1)^|J| prod_a C(K_a, J_a) d_J eta into acc[(sigma, K - J)] for
    every sorted J within K.

    The J are walked index by index, so each d_J is one total derivative of
    the d_J' before it, and only the derivatives on the current path live.
    """
    _walk(acc, sigma, sorted(Counter(K).items()), 0, eta, (), 1)


def _walk(acc: dict, sigma: int, counts: list, t: int, form: Form, I: tuple,
          weight: int) -> None:
    # module-level, not a closure of _telescope: a nested function that
    # calls itself holds itself through its closure cell, a reference cycle
    # that only the cyclic collector frees, and the library makes none
    # (``symexpr._memo_scope``)
    if t == len(counts):
        _add_into(acc.setdefault((sigma, I), {}), form, weight)
        return
    a, ka = counts[t]
    for j in range(ka + 1):
        if j:
            form = total_derivative_form(form, a)
            if form.is_zero():
                return
        _walk(acc, sigma, counts, t + 1, form, I + (a,) * (ka - j),
              (-1) ** j * comb(ka, j) * weight)


def ibp_expand(rho: Form, k: int, etas: dict | None = None) -> XiFamily:
    """Build the integer xi family with the exactness identity verified.

    ``eta_decompose`` validates ``etas``, or builds the canonical family.
    """
    ctx = rho.ctx
    dec = eta_decompose(rho, k, etas)
    D, cleared = _cleared(dec.etas.values())

    with _formal_scope():
        acc: dict = {}
        for (sigma, K), eta_K in zip(dec.etas, cleared):
            _telescope(acc, sigma, K, eta_K)
        int_xi = {}
        for key in list(acc):
            # popped, so each bucket dies as soon as its form is made; a
            # formal zero is a zero, a formal nonzero may expand to zero
            x = _summed(ctx, acc.pop(key))
            if not x.is_zero():
                int_xi[key] = x

        # exactness on the stored family: sum over sorted I of
        # d_I(omega ^ D mult(I) xi^I), divided by D at the root, rebuilds p_k rho
        parts: dict = {}
        for (sigma, I), x in int_xi.items():
            _add_into(parts.setdefault(I, {}), wedge(omega(ctx, sigma), x))
        got = total_derivative_sum(ctx, parts, D)
    if failure := _mismatch(got, p_k(rho, k)):
        raise ExpansionMismatch(
            f"xi telescoping does not rebuild p_k rho (k={k}, s={dec.s}, D={D}); {failure}")
    return XiFamily(ctx, k, dec.s, dec.r, D, int_xi)


def interior_euler(rho: Form, k: int) -> Form:
    """I(rho) = (1/k) omega^sigma ^ sum_J (-1)^|J| d_J (dy^sigma_J _| p_k rho).

    The I = () term of the integration by parts.  For each sigma the
    contractions (-1)^|J| dy^sigma_J _| p_k rho go into a {J: running sum}
    map, whose d_J are summed over the trie of the sorted J
    (``forms.total_derivative_sum``), one form total derivative per node;
    the 1/k is applied once to the whole sum.
    """
    if k < 1:
        raise ValueError("interior Euler operator needs contact degree k >= 1")
    ctx = rho.ctx
    part = p_k(rho, k)
    parts: dict = {}  # sigma -> J -> {wedge: {monomial: coefficient}}
    for sigma, J in sorted(_contact_keys(part)):
        _add_into(parts.setdefault(sigma, {}).setdefault(J, {}),
                  contract_omega(part, sigma, J), -1 if len(J) % 2 else 1)
    acc: dict = {}
    for sigma, by_J in parts.items():
        _add_into(acc, wedge(omega(ctx, sigma), total_derivative_sum(ctx, by_J)))
    return _summed(ctx, acc).scale(Fraction(1, k))


def residual(rho: Form, k: int) -> Form:
    """Residual operator for (n-s)-horizontal k-contact (n-s+k)-forms.

    With the codegree s read off p_k rho, sums over ordered M and b,
    R(rho) = (-1)^k/(s+1) d_{M[1:]} chi^{b M} ^ ds_{b M[0]}
           = 1/(s+1) d_{M[1:]} iota_{M[0]}(omega^sigma ^ xi^M_sigma)
    (the proof is at ``_residual``).  At s = 0 this is the top-form
    residual: for k = 1 the single minus sign of the top-form construction,
    and what p_k rho = I(rho) + p_k d p_k R(rho) requires for k >= 2.
    """
    return _expanded(_formal_residual(rho, k))


def _formal_residual(rho: Form, k: int, etas: dict | None = None, N: int = 1) -> Form:
    """``residual`` before its expansion: R(rho) / N in the formal ring, with
    ``etas`` the eta family handed to ``ibp_expand``."""
    if k < 1:
        raise ValueError("residual operator needs contact degree k >= 1")
    return _residual(ibp_expand(rho, k, etas), N)


def _residual(fam: XiFamily, N: int = 1) -> Form:
    """The contraction form of ``residual``, on the integer xi family,
    divided by N.

    iota_a, dual to dx^a, is an antiderivation that kills the k-contact
    chi^{b M} and takes ds_b to ds_{b a}, so chi ^ ds_{b a} =
    (-1)^k iota_a(chi ^ ds_b), and the sum over b of chi^{b M} ^ ds_b is
    omega^sigma ^ xi^M_sigma.  Total derivatives commute with iota_a, so
    the orderings M of one sorted Ms with first index a give one term
    mult(Ms - a) d_{Ms - a} iota_a(omega^sigma ^ xi^Ms_sigma), summed over
    the trie of the I = Ms - a.  Each 1/(D mult(Ms)) is cleared by L, the
    lcm of every mult(Ms); the one rational step is the division of the
    trie sum by (s+1) D L N, where N is the caller's: the Lepage step
    passes the lcm its input was cleared by.  L cancels in it, so a formal
    key whose form expands to zero changes nothing.  The trie sum runs
    formally, and the result is formal: ``residual`` expands it once, and
    the Lepage recurrence keeps it formal until it returns.
    """
    ctx = fam.ctx
    L = math.lcm(*{tuple_multiplicity(Ms) for _, Ms in fam.int_xi})
    parts: dict = {}
    for (sigma, Ms), x in fam.int_xi.items():
        if not Ms:
            continue
        term = wedge(omega(ctx, sigma), x)
        weight = L // tuple_multiplicity(Ms)
        for t, a in enumerate(Ms):
            if t and Ms[t - 1] == a:
                continue
            I = Ms[:t] + Ms[t + 1:]
            _add_into(parts.setdefault(I, {}), _contract(term, ('dx', a)),
                      weight * tuple_multiplicity(I))
    with _formal_scope():
        return total_derivative_sum(ctx, parts, (fam.s + 1) * fam.denominator * L * N)
