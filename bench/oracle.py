"""Independent Euler-Lagrange oracle: sympy's ``euler_equations``.

Shares no code with jetform.  The density and the engine's JSON output
are both read as text in the jetform grammar (``u_12`` is the jet
coordinate of field u along x1, x2; ``^`` is a power) and turned into
sympy expressions over functions u(x1..xn), v(x1..xn).
"""

from __future__ import annotations

import json
import re

_FIELDS = ("u", "v", "w")
_IDENT = re.compile(r"\b([A-Za-z][A-Za-z0-9]*)(?:_(\d+))?\b")


def _to_sympy(text, xs, funcs):
    import sympy
    names = {}
    for mo in _IDENT.finditer(text):
        base, sub = mo.group(1), mo.group(2)
        if base in _FIELDS[:len(funcs)]:
            f = funcs[_FIELDS.index(base)]
            names[mo.group(0)] = f.diff(*(xs[int(c) - 1] for c in sub)) if sub else f
        elif re.fullmatch(r"x\d+", base) and not sub:
            names[base] = xs[int(base[1:]) - 1]
        else:
            raise ValueError(f"unexpected identifier {mo.group(0)!r}")
    safe = {name: sympy.Symbol(f"_s{k}") for k, name in enumerate(names)}
    expr = sympy.sympify(_IDENT.sub(lambda mo: str(safe[mo.group(0)]), text)
                         .replace("^", "**"))
    return expr.subs({safe[name]: value for name, value in names.items()})


def euler_lagrange_matches(density: str, n: int, m: int, el_json: str) -> bool:
    """Whether jetform's ``el --format json`` output is sympy's E-L operator."""
    import sympy
    from sympy.calculus.euler import euler_equations

    xs = sympy.symbols(" ".join(f"x{i}" for i in range(1, n + 1)), seq=True)
    funcs = [sympy.Function(name)(*xs) for name in _FIELDS[:m]]
    lagrangian = _to_sympy(density, xs, funcs)
    # sympy drops equations that evaluate to True or False; a probe term
    # c*f keeps each one symbolic and is subtracted again below
    probe = sympy.Symbol("c_probe")
    expected = []
    for f in funcs:
        [eq] = euler_equations(lagrangian + probe * f, [f], xs)
        expected.append(eq.lhs - eq.rhs - probe)

    got = [sympy.Integer(0)] * m
    for term in json.loads(el_json)["terms"]:
        contact = [c for c in term["wedge"] if c["kind"] == "w"]
        horizontal = [c["i"] for c in term["wedge"] if c["kind"] == "dx"]
        if len(contact) != 1 or contact[0]["J"] or horizontal != list(range(1, n + 1)):
            return False
        # stored dx^1..dx^n ^ w^sigma = (-1)^n w^sigma ^ ds
        sigma = contact[0]["sigma"]
        got[sigma - 1] += (-1) ** n * _to_sympy(term["coeff"], xs, funcs)
    return all(sympy.expand(e - g) == 0 for e, g in zip(expected, got))
