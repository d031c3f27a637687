"""Form operations that only the tests use: the decode of a form's masks
into covector tuples in printed order and a tuple-keyed oracle of the
mask operations, a covector walk for d_H, the per-J derivative chain of
the interior Euler operator, a grid of random forms over every bidegree,
the wedge of several factors, the chi table of a xi family with its signed
lookup and (s+1)!-ordering antisymmetrization, and the form-level
three-way split that the morphism-level split-like decomposition is
checked against, and the closed Lepage tower summed over fully ordered
slot tuples, with one partial per momentum index and one chain of
partials per ordered tuple.

The tuple oracle keys each term by its covectors in printed order and
takes every sign from ``sort_with_sign``; it reads no mask.
``bit_order`` gives the covectors their bits in a chosen order, so that
bit order can be made to disagree with printed order.  The d_H walk
differentiates each coefficient and each contact covector in place, and
the I chain takes d_J of each contraction one index at a time and adds the
results form by form.  Neither goes through the sum over i of dx^i ^ d_i
of the library's ``d_H`` or the trie sum (``total_derivative_sum``) of its
``interior_euler``.
"""

import contextlib
import itertools
import math
import random
from fractions import Fraction

from jetform import forms
from jetform import interior_euler as ie
from jetform import printers
from jetform import symexpr
from jetform.forms import (Context, Form, _covectors, _ds_wedge, contract_omega, d_H, ds_block,
                           ds_parts, omega, p_k, total_derivative_form_multi, wedge)
from jetform.multiindex import sort_with_sign, tuple_multiplicity
from jetform.printers import _cov_key
from jetform.randomgen import rand_form
from jetform.symexpr import Scalar
from splitting_oracles import signed_permutations


def tuple_terms(rho: Form) -> dict:
    """{covectors in printed order: coefficient} for the terms of rho.

    Each mask is read bit by bit off the covector table, and its covectors,
    stored in ascending bit order, are sorted into printed order with the
    sign of that sort.
    """
    out = {}
    for w, c in rho.terms.items():
        covs = [forms._COVS[k] for k in range(w.bit_length()) if w >> k & 1]
        covs, sign = sort_with_sign(covs, _cov_key)
        out[covs] = c if sign == 1 else -c
    return out


@contextlib.contextmanager
def bit_order(covs):
    """A fresh covector table in which covs take the first bits, in their
    order; the process's table comes back on exit, so a form built inside
    means nothing outside.  The caches keyed by masks are emptied at both
    ends."""
    def reset(bits, table, contact, raised):
        forms._BITS.clear()
        forms._BITS.update(bits)
        forms._COVS[:] = table
        forms._CONTACT = contact
        forms._RAISED.clear()
        forms._RAISED.update(raised)
        forms._ds_wedge.cache_clear()
        printers._printed_wedge.cache_clear()

    saved = dict(forms._BITS), list(forms._COVS), forms._CONTACT, dict(forms._RAISED)
    reset({}, [], 0, {})
    try:
        for cov in covs:
            forms._bit(cov)
        yield
    finally:
        reset(*saved)


# -- the tuple-keyed oracle: {covectors in printed order: Scalar} ---------------


def _add_sorted(out: dict, covs: tuple, c: Scalar) -> None:
    """out += c times the wedge of covs, sorted into printed order."""
    w, sign = sort_with_sign(covs, _cov_key)
    if sign:
        out[w] = out.get(w, Scalar.zero()) + (c if sign == 1 else -c)


def _nonzero(out: dict) -> dict:
    return {w: c for w, c in out.items() if not c.is_zero()}


def t_from_pairs(pairs) -> dict:
    out = {}
    for covs, c in pairs:
        _add_sorted(out, tuple(covs), c)
    return _nonzero(out)


def t_wedge(a: dict, b: dict) -> dict:
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _add_sorted(out, wa + wb, ca * cb)
    return _nonzero(out)


def t_total_derivative(a: dict, i: int) -> dict:
    """d_i: the coefficient differentiated, and each omega raised in its slot."""
    out = {}
    for w, c in a.items():
        _add_sorted(out, w, symexpr.total_derivative(c, i))
        for t, cov in enumerate(w):
            if cov[0] == 'w':
                raised = ('w', cov[1], tuple(sorted(cov[2] + (i,))))
                _add_sorted(out, w[:t] + (raised,) + w[t + 1:], c)
    return _nonzero(out)


def t_d_H(a: dict, n: int) -> dict:
    """The sum over i of dx^i ^ d_i."""
    out = {}
    for i in range(1, n + 1):
        for w, c in t_total_derivative(a, i).items():
            _add_sorted(out, (('dx', i),) + w, c)
    return _nonzero(out)


def t_d_C(a: dict) -> dict:
    """The sum of dc/dy^sigma_J omega^sigma_J ^ w over the terms c w."""
    out = {}
    for w, c in a.items():
        for (_, sigma, J), dc in symexpr.gradient(c).items():
            _add_sorted(out, (('w', sigma, J),) + w, dc)
    return _nonzero(out)


def t_contract(a: dict, cov) -> dict:
    """The contraction with the vector dual to cov, (-1)^t at slot t."""
    out = {}
    for w, c in a.items():
        if cov in w:
            t = w.index(cov)
            out[w[:t] + w[t + 1:]] = c if t % 2 == 0 else -c
    return out


def t_p_k(a: dict, k: int) -> dict:
    return {w: c for w, c in a.items() if sum(cov[0] == 'w' for cov in w) == k}


def t_degrees(a: dict) -> set:
    return {(sum(cov[0] == 'dx' for cov in w), sum(cov[0] == 'w' for cov in w)) for w in a}


def t_ds_parts(a: dict, n: int) -> dict:
    """{block: contact part}: c dx_H ^ omega_C is (-1)^(|H| |C|) c omega_C ^
    dx_H, and dx_H is ds_block of the complement of H times the sign that
    sorts block + H."""
    parts = {}
    for w, c in a.items():
        H = tuple(cov[1] for cov in w if cov[0] == 'dx')
        C = tuple(cov for cov in w if cov[0] == 'w')
        block = tuple(i for i in range(1, n + 1) if i not in H)
        sign = sort_with_sign(block + H)[1] * (-1) ** (len(H) * len(C))
        parts.setdefault(block, {})[C] = c if sign == 1 else -c
    return parts


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
    for w, c in tuple_terms(rho).items():
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
    keys = {(cov[1], cov[2]) for w in tuple_terms(part) for cov in w if cov[0] == 'w'}
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


def chi_table(fam: ie.XiFamily) -> dict:
    """(block strictly increasing, I sorted) -> chi^{block, I}, the k-contact
    k-forms with omega^sigma ^ xi^I_sigma = sum of chi^{block, I} ^ ds_block,
    read off the expanded xi family (``forms.ds_parts``); zeros dropped."""
    chi: dict = {}
    for (sigma, I), x in fam.xi.items():
        if I:
            for block, part in ds_parts(wedge(omega(fam.ctx, sigma), x)).items():
                chi[block, I] = chi[block, I] + part if (block, I) in chi else part
    return {key: f for key, f in chi.items() if not f.is_zero()}


def signed_lookup(table: dict, block, rest: tuple, default):
    """``table[(sorted block,) + rest]`` times the sign that sorts ``block``;
    ``default`` when the block repeats an index or the key is absent."""
    sblock, sign = sort_with_sign(block)
    val = table.get((sblock,) + rest) if sign else None
    if val is None:
        return default
    return val if sign == 1 else -val


def chi_antisym(ctx: Context, chi: dict, block, i: int, I_sorted) -> Form:
    """chi^{[block i] I}: normalized antisymmetrization over block + i, for
    ``chi`` a table of ``chi_table``."""
    idxs = tuple(block) + (i,)
    p = len(idxs)
    out = Form.zero(ctx)
    for arranged, sign in signed_permutations(idxs):
        val = signed_lookup(chi, arranged[:-1], (tuple(sorted((arranged[-1],) + I_sorted)),),
                            Form.zero(ctx))
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
    chi = chi_table(fam)
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
                exact = signed_lookup(chi, block, (tuple(sorted(M)),), Form.zero(ctx))
                anti = chi_antisym(ctx, chi, block, M[0], tuple(sorted(M[1:])))
                diff = exact - anti
                if diff.is_zero():
                    continue
                piece = total_derivative_form_multi(diff, M)
                middle = middle + wedge(piece, ds_block(ctx, block))
    return source, middle, boundary


# -- the closed tower over ordered slot tuples -------------------------------------


def momentum_ordered(lam, sigma: int, J: tuple) -> Scalar:
    """f^J_sigma: sum over ordered K, |J|+|K| <= r, of (-1)^|K| d_K p^{JK}_sigma.

    p^{JK}_sigma is dL/dy^sigma_{JK} over the tuple multiplicity of the
    sorted key.  J = () gives E_sigma(L); at order 2, (i,) is p^i - d_k p^{ik}.
    d_K and the key depend only on sorted K, so the sum runs over sorted
    K, each weighted by its multiplicity.
    """
    out = Scalar.zero()
    for K in symexpr.jet_keys(lam.ctx.n, lam.order - len(J)):
        key = tuple(sorted(J + K))
        base = symexpr.partial(lam.density, ('y', sigma, key))
        weight = Fraction((-1) ** len(K) * tuple_multiplicity(K), tuple_multiplicity(key))
        out = out + symexpr.total_derivative_multi(base * weight, K)
    return out


@symexpr._memo_scope()
def closed_equivalent_ordered(lam, slots: tuple) -> Form:
    """L plus the pure-contact tower truncated at the given slot counts.

    ``slots[h]`` is the slot count of the tower whose lead is
    omega^sigma_{J'} with |J'| = h.  For Q = 1 .. slots[h] that tower adds,
    over ordered slot pairs (sigma_1, i_1) .. (sigma_Q, i_Q) and ordered J',

        w_h(Q) [d/dy^{sigma_1}_{i_1} .. d/dy^{sigma_{Q-1}}_{i_{Q-1}} f^{i_Q J'}_{sigma_Q}]
               omega^{sigma_1} ^ .. ^ omega^{sigma_{Q-1}} ^ omega^{sigma_Q}_{J'}
               ^ ds_{i_1 .. i_Q},

    with f = ``momentum_ordered``, w_0(Q) = (Q!)^-2 and w_h(Q) = (Q!)^-1
    for h >= 1: a raised lead is distinguishable, so it keeps the literal
    weight.
    """
    ctx = lam.ctx
    n = ctx.n
    slot_pairs = list(itertools.product(range(1, ctx.m + 1), range(1, n + 1)))
    momenta: dict = {}  # f^J_sigma depends on the sorted J only
    terms = []
    for h, top in enumerate(slots):
        leads = []
        for sigma, i in slot_pairs:
            for Jp in itertools.product(range(1, n + 1), repeat=h):
                key = (sigma, tuple(sorted((i,) + Jp)))
                base = momenta.get(key)
                if base is None:
                    base = momenta[key] = momentum_ordered(lam, *key)
                if not base.is_zero():
                    leads.append((i, ('w', sigma, tuple(sorted(Jp))), base))
        for q in range(1, top + 1):
            weight = Fraction(1, math.factorial(q) ** (2 if h == 0 else 1))
            for pairs in itertools.product(slot_pairs, repeat=q - 1):
                plain = tuple(('w', sigma, ()) for sigma, _ in pairs)
                for i, lead, base in leads:
                    if len({*plain, lead}) <= len(plain):
                        continue  # a repeated omega wedges to zero: take no partial
                    horiz, sign = _ds_wedge(n, tuple(k for _, k in pairs) + (i,))
                    if not sign:
                        continue
                    coeff = base
                    for sigma, k in pairs:
                        coeff = symexpr.partial(coeff, ('y', sigma, (k,)))
                    if coeff.is_zero():
                        continue
                    terms.append((plain + (lead,) + _covectors(horiz), coeff * sign * weight))
    return lam.form() + Form.from_terms(ctx, terms)
