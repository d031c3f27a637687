"""Form builders that only the tests use: an independent chart formula for
d_H, the wedge of several factors, the (s+1)!-ordering antisymmetrization
of a chi family, and the form-level three-way split that the
morphism-level split-like decomposition is checked against."""

import itertools
import math
from fractions import Fraction

from jetform import interior_euler as ie
from jetform.forms import (Form, d_H, ds_block, dx, omega, total_derivative_form,
                           total_derivative_form_multi, wedge)
from splitting_oracles import signed_permutations


def wedge_all(*forms: Form) -> Form:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def d_H_local(rho: Form) -> Form:
    """The chart formula (-1)^q d_i rho ^ dx^i, applied per total degree."""
    ctx = rho.ctx
    out = Form(ctx)
    by_degree: dict = {}
    for w, c in rho.terms.items():
        by_degree.setdefault(len(w), Form(ctx)).terms[w] = c
    for q, part in by_degree.items():
        for i in range(1, ctx.n + 1):
            out = out + wedge(total_derivative_form(part, i), dx(ctx, i)).scale((-1) ** q)
    return out


def chi_antisym(fam: ie.XiFamily, block, i: int, I_sorted) -> Form:
    """chi^{[block i] I}: normalized antisymmetrization over block + i."""
    idxs = tuple(block) + (i,)
    p = len(idxs)
    out = Form.zero(fam.ctx)
    for arranged, sign in signed_permutations(idxs):
        val = fam.chi_at(arranged[:-1], tuple(sorted((arranged[-1],) + I_sorted)))
        if not val.is_zero():
            out = out + val.scale(Fraction(sign, math.factorial(p)))
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
    fam = ie.ibp_expand(rho, 1)
    source = Form.zero(ctx)
    for (sigma, I), x in fam.xi.items():
        if len(I) == 0:
            source = source + wedge(omega(ctx, sigma), x)

    boundary = d_H(ie._residual(fam))
    # the antisymmetrized chi draws on neighbouring blocks, so the middle
    # term is summed over the full block/multi-index range, not stored keys
    middle = Form.zero(ctx)
    n = ctx.n
    for block in itertools.combinations(range(1, n + 1), fam.s):
        for lm in range(1, fam.r + 1):
            for M in itertools.product(range(1, n + 1), repeat=lm):
                exact = fam.chi_at(block, tuple(sorted(M)))
                anti = chi_antisym(fam, block, M[0], tuple(sorted(M[1:])))
                diff = exact - anti
                if diff.is_zero():
                    continue
                piece = total_derivative_form_multi(diff, M)
                middle = middle + wedge(piece, ds_block(ctx, block))
    return source, middle, boundary
