"""Interior Euler operator, integration by parts, and the residual operator.

The pipeline shared by every operator here:

1. write the k-contact part of a form as a sum over contact covectors,
   p_k rho = sum over (sigma, J) of omega^sigma_J ^ eta^J_sigma;
2. telescope the eta family into xi coefficients so that
   p_k rho = sum over multi-indices I of d_I(omega^sigma ^ xi^I_sigma);
3. recast each omega^sigma ^ xi^I_sigma as chi^{i_1..i_s I} ^ ds_{i_1..i_s}
   and assemble the residual operator from the chi family; one operator
   serves every codegree s, the top forms being s = 0.

Multi-index sums follow the ordered-tuple convention; eta is stored per
sorted key (the basis coefficient) and divided by the tuple multiplicity
where an ordered family is required.  The eta decomposition is not unique
for k >= 2; the default is the 1/k-weighted formal contraction, and every
consumer validates recomposition instead of relying on uniqueness.  The
Lepage recurrence passes its own eta family built from term provenance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

# GradingMismatch is re-exported for callers that import it from here
from .forms import (Form, GradingMismatch, codegree, contract_omega, d_H,
                    ds_block, ds_parts, omega, p_k,
                    total_derivative_form_multi, wedge)
from .multiindex import signed_get, signed_permutations, tuple_multiplicity
from .symexpr import Scalar


class RecompositionFailure(AssertionError):
    """The eta family does not rebuild p_k rho (a grading bug)."""


class ExpansionMismatch(AssertionError):
    """The telescoped xi family does not rebuild p_k rho (a multiplicity bug)."""


@dataclass
class EtaDecomposition:
    """p_k rho = sum over sorted (sigma, J) of omega^sigma_J ^ eta^J_sigma."""

    ctx: object
    k: int
    s: int
    r: int
    etas: dict  # (sigma, J sorted) -> (k-1)-contact (n-s)-horizontal Form

    def recompose(self) -> Form:
        out = Form(self.ctx)
        for (sigma, J), eta in self.etas.items():
            out = out + wedge(omega(self.ctx, sigma, *J), eta)
        return out


def _contact_keys(part: Form) -> set:
    """The (sigma, J) of every contact covector omega^sigma_J in a form."""
    return {(cov[1], cov[2]) for w in part.terms for cov in w if cov[0] == 'w'}


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
    if dec.recompose() != part:
        raise RecompositionFailure("eta family does not recompose p_k rho")
    return dec


@dataclass
class XiFamily:
    """Telescoped coefficients xi^I and their ds-extraction chi^{blocks,I}.

    ``xi`` maps (sigma, I sorted) to an ordered-convention coefficient form;
    ``chi`` maps (block strictly increasing, I sorted) to a k-contact k-form,
    in the convention matching strict-block iteration (see module docstring).
    """

    ctx: object
    k: int
    s: int
    r: int
    xi: dict
    chi: dict

    def chi_at(self, block, M_sorted) -> Form:
        """Signed chi lookup for an arbitrarily ordered block."""
        return signed_get(self.chi, block, (M_sorted,), Form.zero(self.ctx))

    def chi_antisym(self, block, i: int, I_sorted) -> Form:
        """chi^{[block i] I}: normalized antisymmetrization over block + i."""
        idxs = tuple(block) + (i,)
        p = len(idxs)
        out = Form.zero(self.ctx)
        for arranged, sign in signed_permutations(idxs):
            val = self.chi_at(arranged[:-1], tuple(sorted((arranged[-1],) + I_sorted)))
            if not val.is_zero():
                out = out + val.scale(Fraction(sign, math.factorial(p)))
        return out


def ibp_expand(rho: Form, k: int, eta: EtaDecomposition | None = None) -> XiFamily:
    """Build the xi/chi families with the exactness identity verified."""
    ctx = rho.ctx
    dec = eta if eta is not None else eta_decompose(rho, k)
    r = dec.r
    n = ctx.n

    eta_ordered = {key: form.scale(Fraction(1, tuple_multiplicity(key[1])))
                   for key, form in dec.etas.items()}

    sigmas = sorted({sigma for sigma, _ in dec.etas})
    xi: dict = {}
    for sigma in sigmas:
        for li in range(r + 1):
            for I in itertools.combinations_with_replacement(range(1, n + 1), li):
                acc = Form.zero(ctx)
                for lj in range(r - li + 1):
                    coeff = Fraction((-1) ** lj * math.comb(lj + li, lj))
                    for J in itertools.product(range(1, n + 1), repeat=lj):
                        key = (sigma, tuple(sorted(I + J)))
                        base = eta_ordered.get(key)
                        if base is None:
                            continue
                        acc = acc + total_derivative_form_multi(base, J).scale(coeff)
                if not acc.is_zero():
                    xi[(sigma, I)] = acc

    # exactness: ordered-I sum of d_I(omega ^ xi^I) rebuilds p_k rho
    rebuilt = Form.zero(ctx)
    for (sigma, I), x in xi.items():
        term = total_derivative_form_multi(wedge(omega(ctx, sigma), x), I)
        rebuilt = rebuilt + term.scale(tuple_multiplicity(I))
    if rebuilt != p_k(rho, k):
        raise ExpansionMismatch("xi telescoping does not rebuild p_k rho")

    chi: dict = {}
    for (sigma, I), x in xi.items():
        if len(I) == 0:
            continue
        for block, part in ds_parts(wedge(omega(ctx, sigma), x)).items():
            chi[(block, I)] = chi.get((block, I), Form.zero(ctx)) + part
    chi = {key: v for key, v in chi.items() if not v.is_zero()}
    return XiFamily(ctx, k, dec.s, r, xi, chi)


def interior_euler(rho: Form, k: int) -> Form:
    """I(rho) = (1/k) omega^sigma ^ sum_J (-1)^|J| d_J (dy^sigma_J _| p_k rho)."""
    ctx = rho.ctx
    part = p_k(rho, k)
    if k < 1:
        raise ValueError("interior Euler operator needs contact degree k >= 1")
    keys = _contact_keys(part)
    out = Form.zero(ctx)
    for sigma in sorted({sig for sig, _ in keys}):
        acc = Form.zero(ctx)
        for sig, J in keys:
            if sig != sigma:
                continue
            inner = contract_omega(part, sigma, J)
            acc = acc + total_derivative_form_multi(inner, J).scale(Fraction((-1) ** len(J)))
        out = out + wedge(omega(ctx, sigma), acc)
    return out.scale(Fraction(1, k))


def residual(rho: Form, k: int, eta: EtaDecomposition | None = None) -> Form:
    """Residual operator for (n-s)-horizontal k-contact (n-s+k)-forms.

    The codegree s is read off p_k rho and the factor is (-1)^k/(s+1).  At
    s = 0 this is the top-form residual: for k = 1 the single minus sign
    of the top-form construction, and what the k-contact decomposition
    p_k rho = I(rho) + p_k d p_k R(rho) requires for k >= 2.  A target
    block longer than n vanishes.
    """
    if k < 1:
        raise ValueError("residual operator needs contact degree k >= 1")
    return _residual(ibp_expand(rho, k, eta=eta))


def _residual(fam: XiFamily) -> Form:
    ctx = fam.ctx
    factor = Fraction((-1) ** fam.k, fam.s + 1)
    out = Form.zero(ctx)
    for (block, Ms), val in fam.chi.items():
        for M in set(itertools.permutations(Ms)):
            target = ds_block(ctx, block + (M[0],))
            if target.is_zero():
                continue
            piece = total_derivative_form_multi(val, M[1:])
            out = out + wedge(piece, target).scale(factor)
    return out


def split_lower(rho: Form):
    """Three-way split of a 1-contact (n-s)-horizontal form.

    Returns (source, middle, boundary) with
    p_1 rho = source + middle + boundary,
    source the omega^sigma ^ xi_sigma term, boundary = d_H of the
    residual, middle the non-antisymmetric remainder of the chi telescopes.
    For s = 0 the middle vanishes: over a one-index block the
    antisymmetrized chi is chi itself.
    """
    ctx = rho.ctx
    fam = ibp_expand(rho, 1)
    source = Form.zero(ctx)
    for (sigma, I), x in fam.xi.items():
        if len(I) == 0:
            source = source + wedge(omega(ctx, sigma), x)

    boundary = d_H(_residual(fam))
    # the antisymmetrized chi draws on neighbouring blocks, so the middle
    # term is summed over the full block/multi-index range, not stored keys
    middle = Form.zero(ctx)
    n = ctx.n
    for block in itertools.combinations(range(1, n + 1), fam.s):
        for lm in range(1, fam.r + 1):
            for M in itertools.product(range(1, n + 1), repeat=lm):
                exact = fam.chi_at(block, tuple(sorted(M)))
                anti = fam.chi_antisym(block, M[0], tuple(sorted(M[1:])))
                diff = exact - anti
                if diff.is_zero():
                    continue
                piece = total_derivative_form_multi(diff, M)
                middle = middle + wedge(piece, ds_block(ctx, block))
    return source, middle, boundary
