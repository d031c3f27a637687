"""Pretty-printers: plain text, LaTeX, and the JSON document format.

The text format round-trips through the parser for forms built from
coordinates and rationals.  Opaque function symbols print in a readable
bracket notation that is not part of the input grammar.  One renderer,
``_render``, writes a scalar in both text and LaTeX; the two formats
differ only in the pieces it takes (``_TEXT``, ``_LATEX``).

A form stores each wedge as a bitmask in the order its covectors were
first used (``forms``).  The printers alone restore the fixed order, every
dx before every omega, dx sorted by i, omega sorted by (sigma, |J|, J)
(``_cov_key``): ``_printed_wedge`` decodes a mask and sorts its covectors
with the sign of that sort, once per mask while it stays in its cache,
and ``_printed_terms`` hands that sign to ``_render`` with the
coefficient.  Terms are printed by (length, covector tuple).
"""

from __future__ import annotations

import functools
import json
from operator import itemgetter

from .forms import Form, _covectors
from .multiindex import sort_with_sign
from .symexpr import Scalar

JSON_VERSION = "jetform-json/1"

_DEFAULT_FIELDS = ("u", "v", "w")


def field_name(sigma: int, fields=None) -> str:
    if fields is not None:
        return fields[sigma - 1]
    if sigma <= len(_DEFAULT_FIELDS):
        return _DEFAULT_FIELDS[sigma - 1]
    return f"y{sigma}"


def _subscript(J) -> str:
    return "".join(str(j) for j in J)


def _keyed_terms(e: Scalar) -> list:
    """The terms of e as (((atom key, exponent), ...), coefficient), sorted
    by key: the order of the output does not depend on atom ranks."""
    out = []
    for mono, c in e.terms.items():
        keyed = [(a.key, k) for a, k in mono]
        keyed.sort()
        out.append((keyed, c))
    out.sort(key=itemgetter(0))
    return out


def _cov_key(cov):
    # injective, so equal keys mean a repeated covector
    if cov[0] == 'dx':
        return (0, cov[1], 0, ())
    return (1, cov[1], len(cov[2]), cov[2])


@functools.lru_cache(maxsize=4096)  # a mask's covectors never change
def _printed_wedge(w: int) -> tuple:
    """(covectors, sign): the covectors of the mask w sorted by
    ``_cov_key``, and the sign of that sort."""
    return sort_with_sign(_covectors(w), _cov_key)


def _printed_terms(rho: Form) -> list:
    """[(covectors, sign, coefficient)] for the terms of rho, in printed
    order (``_printed_wedge``)."""
    out = [(*_printed_wedge(w), c) for w, c in rho.terms.items()]
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def _atom_text(key, fields) -> str:
    kind = key[0]
    if kind == 'x':
        return f"x{key[1]}"
    if kind == 'y':
        name = field_name(key[1], fields)
        return name if not key[2] else f"{name}_{_subscript(key[2])}"
    if kind == 'g':
        return f"D{_subscript(key[2])}({_atom_text(key[1], fields)})"
    name, idx, partials = key[1], key[2], key[6]
    label = name + ("{" + ",".join(map(str, idx)) + "}" if idx else "")
    for c in partials:
        if c[0] == 'x':
            label += f"'x{c[1]}"
        else:
            label += f"'{_atom_text(c, fields)}"
    return label


def _render(e: Scalar, fields, atom, power: str, times: str, fraction: str,
            before_body: str, sign: int = 1) -> str:
    """sign times e, in one format: its atoms, the format of a power and of
    a non-whole magnitude, the separator of factors and the one between a
    coefficient and its factors.  Sign and magnitude come off the
    numerator and denominator of each coefficient, so no Fraction is made."""
    if e.is_zero():
        return "0"
    out = []
    for mono, c in _keyed_terms(e):
        body = times.join(atom(key, fields) if k == 1 else power % (atom(key, fields), k)
                          for key, k in mono)
        num, den = sign * c.numerator, c.denominator
        mag = -num if num < 0 else num
        coeff = str(mag) if den == 1 else fraction % (mag, den)
        if not body:
            text = coeff
        elif coeff == "1":
            text = body
        else:
            text = coeff + before_body + body
        if out:
            out.append(" - " if num < 0 else " + ")
        elif num < 0:
            out.append("-")
        out.append(text)
    return "".join(out)


_TEXT = (_atom_text, "%s^%d", "*", "%d/%d", "*")


def scalar_text(e: Scalar, fields=None) -> str:
    return _render(e, fields, *_TEXT)


def _cov_text(cov, ctx, fields) -> str:
    if cov[0] == 'dx':
        return f"dx{cov[1]}"
    name = field_name(cov[1], fields)
    return f"w({name})" if not cov[2] else f"w({name},{_subscript(cov[2])})"


def form_text(rho: Form, fields=None) -> str:
    """Plain-text rendering; parseable back when coefficients are polynomial.

    Terms carrying the full coordinate volume print as "... /\\ ds"; the
    coefficient absorbs the reordering sign so the text parses back exactly.
    """
    if rho.is_zero():
        return "0"
    ctx = rho.ctx
    full = tuple(('dx', i) for i in range(1, ctx.n + 1))
    pieces = []
    for w, sign, c in _printed_terms(rho):
        dxpart = w[:sum(1 for cov in w if cov[0] == 'dx')]
        wpart = w[len(dxpart):]
        if dxpart == full:
            covs = [_cov_text(cov, ctx, fields) for cov in wpart] + ["ds"]
            if (ctx.n * len(wpart)) % 2:
                sign = -sign
        else:
            covs = [_cov_text(cov, ctx, fields) for cov in w]
        body = " /\\ ".join(covs)
        coeff = _render(c, fields, *_TEXT, sign)
        if not body:
            pieces.append(f"({coeff})")
        elif coeff == "1":
            pieces.append(body)
        else:
            pieces.append(f"({coeff}) * {body}")
    return "  +  ".join(pieces)


# -- LaTeX --------------------------------------------------------------------

def _atom_latex(key, fields) -> str:
    kind = key[0]
    if kind == 'x':
        return f"x^{{{key[1]}}}"
    if kind == 'y':
        name = field_name(key[1], fields)
        return name if not key[2] else f"{name}_{{{_subscript(key[2])}}}"
    if kind == 'g':
        return f"D_{{{_subscript(key[2])}}}\\left({_atom_latex(key[1], fields)}\\right)"
    name, idx, partials = key[1], key[2], key[6]
    out = name
    if idx:
        out += "^{" + ",".join(map(str, idx)) + "}"
    for c in partials:
        sub = f"x^{c[1]}" if c[0] == 'x' else _atom_latex(c, fields)
        out = r"\partial_{" + sub + "}" + out
    return out


_LATEX = (_atom_latex, "%s^{%d}", r"\, ", r"\tfrac{%d}{%d}", "")


def scalar_latex(e: Scalar, fields=None) -> str:
    return _render(e, fields, *_LATEX)


def _cov_latex(cov, fields) -> str:
    if cov[0] == 'dx':
        return f"dx^{{{cov[1]}}}"
    name = field_name(cov[1], fields)
    base = r"\omega^{" + name + "}"
    return base if not cov[2] else base + "_{" + _subscript(cov[2]) + "}"


def form_latex(rho: Form, fields=None) -> str:
    if rho.is_zero():
        return "0"
    pieces = []
    for w, sign, c in _printed_terms(rho):
        body = r" \wedge ".join(_cov_latex(cov, fields) for cov in w)
        coeff = _render(c, fields, *_LATEX, sign)
        if not body:
            pieces.append(f"\\left({coeff}\\right)")
        elif coeff == "1":
            pieces.append(body)
        else:
            pieces.append(f"\\left({coeff}\\right) {body}")
    return " + ".join(pieces)


# -- JSON ----------------------------------------------------------------------

def _cov_json(cov, fields) -> dict:
    if cov[0] == 'dx':
        return {"kind": "dx", "i": cov[1]}
    return {"kind": "w", "sigma": cov[1], "J": list(cov[2]),
            "field": field_name(cov[1], fields)}


def form_json_doc(rho: Form, fields=None) -> dict:
    """The JSON document as a plain dict."""
    degs = rho.degrees()
    if len(degs) == 1:
        h, c = next(iter(degs))
        grading = {"horizontal": h, "contact": c}
    else:
        grading = {"horizontal": None, "contact": None}
    terms = []
    for w, sign, c in _printed_terms(rho):
        terms.append({"coeff": _render(c, fields, *_TEXT, sign),
                      "wedge": [_cov_json(cov, fields) for cov in w]})
    return {"version": JSON_VERSION, "order": rho.order(),
            "grading": grading, "terms": terms}


def form_json(rho: Form, fields=None) -> str:
    """Deterministic JSON document; byte-identical across runs."""
    return json.dumps(form_json_doc(rho, fields), sort_keys=True,
                      separators=(",", ":"))
