"""Pretty-printers: plain text, LaTeX, and the JSON document format.

The text format round-trips through the parser for forms built from
coordinates and rationals.  Opaque function symbols print in a readable
bracket notation that is not part of the input grammar.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import itemgetter

from .forms import Form
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


def _atom_text(key, fields) -> str:
    kind = key[0]
    if kind == 'x':
        return f"x{key[1]}"
    if kind == 'y':
        name = field_name(key[1], fields)
        return name if not key[2] else f"{name}_{_subscript(key[2])}"
    name, idx, partials = key[1], key[2], key[6]
    label = name + ("{" + ",".join(map(str, idx)) + "}" if idx else "")
    for c in partials:
        if c[0] == 'x':
            label += f"'x{c[1]}"
        else:
            label += f"'{_atom_text(c, fields)}"
    return label


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def scalar_text(e: Scalar, fields=None) -> str:
    if e.is_zero():
        return "0"
    pieces = []
    for mono, c in _keyed_terms(e):
        factors = []
        for key, k in mono:
            a = _atom_text(key, fields)
            factors.append(a if k == 1 else f"{a}^{k}")
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            text = _coeff_text(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{_coeff_text(mag)}*{body}"
        pieces.append(("-" if c < 0 else "+", text))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


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
    for w in sorted(rho.terms, key=lambda w: (len(w), w)):
        c = rho.terms[w]
        dxpart = w[:sum(1 for cov in w if cov[0] == 'dx')]
        wpart = w[len(dxpart):]
        if dxpart == full:
            covs = [_cov_text(cov, ctx, fields) for cov in wpart] + ["ds"]
            if (ctx.n * len(wpart)) % 2 == 1:
                c = Scalar.zero() - c
        else:
            covs = [_cov_text(cov, ctx, fields) for cov in w]
        body = " /\\ ".join(covs)
        coeff = scalar_text(c, fields)
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
    name, idx, partials = key[1], key[2], key[6]
    out = name
    if idx:
        out += "^{" + ",".join(map(str, idx)) + "}"
    for c in partials:
        sub = f"x^{c[1]}" if c[0] == 'x' else _atom_latex(c, fields)
        out = r"\partial_{" + sub + "}" + out
    return out


def scalar_latex(e: Scalar, fields=None) -> str:
    if e.is_zero():
        return "0"
    pieces = []
    for mono, c in _keyed_terms(e):
        factors = []
        for key, k in mono:
            a = _atom_latex(key, fields)
            factors.append(a if k == 1 else f"{a}^{{{k}}}")
        body = r"\, ".join(factors)
        mag = abs(c)
        if mag.denominator == 1:
            coeff = str(mag.numerator)
        else:
            coeff = r"\tfrac{%d}{%d}" % (mag.numerator, mag.denominator)
        if not body:
            text = coeff
        elif mag == 1:
            text = body
        else:
            text = f"{coeff}{body}"
        pieces.append(("-" if c < 0 else "+", text))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


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
    for w in sorted(rho.terms, key=lambda w: (len(w), w)):
        c = rho.terms[w]
        body = r" \wedge ".join(_cov_latex(cov, fields) for cov in w)
        coeff = scalar_latex(c, fields)
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
    for w in sorted(rho.terms, key=lambda w: (len(w), w)):
        terms.append({"coeff": scalar_text(rho.terms[w], fields),
                      "wedge": [_cov_json(cov, fields) for cov in w]})
    return {"version": JSON_VERSION, "order": rho.order(),
            "grading": grading, "terms": terms}


def form_json(rho: Form, fields=None) -> str:
    """Deterministic JSON document; byte-identical across runs."""
    return json.dumps(form_json_doc(rho, fields), sort_keys=True,
                      separators=(",", ":"))
