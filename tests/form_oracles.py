"""Form operations that only the tests use: a covector walk for d_H, the
per-J derivative chain of the interior Euler operator, a grid of random
forms over every bidegree, the wedge of several factors, the
(s+1)!-ordering antisymmetrization of a chi family, and the form-level
three-way split that the morphism-level split-like decomposition is
checked against.

The d_H walk differentiates each coefficient and each contact covector in
place, and the I chain takes d_J of each contraction one index at a time
and adds the results form by form.  Neither goes through the sum over i of
dx^i ^ d_i of the library's ``d_H`` or the trie sum
(``total_derivative_sum``) of its ``interior_euler``.
"""

import itertools
import math
import random
from fractions import Fraction

from jetform import interior_euler as ie
from jetform import symexpr
from jetform.forms import (Context, Form, contract_omega, d_H, ds_block, omega,
                           p_k, total_derivative_form_multi, wedge)
from jetform.randomgen import rand_form
from splitting_oracles import signed_permutations


def wedge_all(*forms: Form) -> Form:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def d_H_walk(rho: Form) -> Form:
    """d_H term by term: (d_i c) dx^i ^ w + c d(w) for each term c w, with
    d(dx^i) = 0 and d(omega^sigma_J) = dx^j ^ omega^sigma_Jj at the slot of
    omega^sigma_J."""
    n = rho.ctx.n
    pairs = []
    for w, c in rho.terms.items():
        for i in range(1, n + 1):
            pairs.append(((('dx', i),) + w, symexpr.total_derivative(c, i)))
        for t, cov in enumerate(w):
            if cov[0] != 'w':
                continue
            for j in range(1, n + 1):
                raised = ('w', cov[1], tuple(sorted(cov[2] + (j,))))
                pairs.append((w[:t] + (('dx', j), raised) + w[t + 1:],
                              c if t % 2 == 0 else -c))
    return Form.from_terms(rho.ctx, pairs)


def interior_euler_chain(rho: Form, k: int) -> Form:
    """I(rho) = (1/k) omega^sigma ^ sum over sorted J of (-1)^|J| d_J
    (dy^sigma_J _| p_k rho), each d_J a chain of single total derivatives."""
    ctx = rho.ctx
    part = p_k(rho, k)
    keys = {(cov[1], cov[2]) for w in part.terms for cov in w if cov[0] == 'w'}
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


def degree_grid(seed: int):
    """Random forms at n = 1..4, m = 1, 2, every horizontal degree and
    contact degree 0-3, jet order 0-3; every third one has an opaque factor."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 5):
        for m in (1, 2):
            ctx = Context(n=n, m=m)
            for h in range(n + 1):
                for k in range(4):
                    rho = rand_form(rng, ctx, h, k, rng.randint(0, 3), terms=2)
                    if len(out) % 3 == 2:
                        rho = rho.scale(symexpr.opaque("F", n=n, m=m, order=rng.randint(0, 2)))
                    out.append(rho)
    return out


def formal_atoms(forms) -> set:
    """The formal total-derivative atoms D_I f in the coefficients of forms."""
    return {a for rho in forms for c in rho.terms.values() for a in c.atoms()
            if a.kind == 'g'}


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
