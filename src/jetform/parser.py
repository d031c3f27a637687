"""Input grammar for Lagrangian densities and forms.

Coordinates are x1..xn; fiber fields are named identifiers mapped to
sigma = 1..m in roster order (u, v, w by default).  Jet subscripts take
index digits (u_12) or the letter aliases x,y,z for 1,2,3 (u_xy).  Form
atoms are dx1.., w(u,J), dy(u,J), ds, and ds(i,..); dy(u,J) is read in the
contact basis, as w(u,J) + u_Jj dx^j summed over j.  A number is ASCII
digits.

One precedence table, ``_BINARY``, orders the binary operators, all
left-associative: * and / bind tightest, then the wedge /\\, then + and -.
A prefix sign binds tighter than any of them, and a postfix ^NUMBER on an
atom or a parenthesized group tighter still.  ``_Parser.parse`` is one
loop over an explicit operand stack and operator stack, so nesting depth
costs no Python frames.

The text is read in one scan: one ``findall`` of ``_TOKEN`` gives the
tokens as bare strings, and a character no token takes shows as a
shortfall in the characters they hold.  A token carries no position: the
line and column of an error are worked out from the text only when it is
raised, by scanning again up to the token at fault.  Each name, and each
covector with arguments, is read once per parse: the parser mutates no
value, so one value serves every occurrence.  The terms of a + -
chain go straight into one running sum (``_Sum``), a {monomial:
coefficient} map while no operand is a form and a {mask: {monomial:
coefficient}} map once one is, as the library's builders sum (``forms``);
it becomes a Scalar or a Form once, at the ``)`` or the end that closes
the chain, so no + copies the sum before it.  A value is a form when a
covector or a wedge made it, and a sum keeps to the rule of adding one
operand at a time: a form that has cancelled to zero, added to a scalar,
leaves the scalar.  A wedge of two one-term forms is one mask and one
sign; every other product goes through the library's product kernel.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from itertools import islice

from . import symexpr
from .forms import (Context, Form, _add_terms, _bit, _summed, _wedge_sign, ds_block, dx, omega,
                    wedge)
from .lepage import Lagrangian
from .printers import field_name
from .symexpr import Scalar, _merge


class InputSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class OrderViolation(ValueError):
    """A jet coordinate exceeds the declared order."""


class UnknownIdentifier(ValueError):
    """An identifier is neither a coordinate, a field, nor a form atom."""


# blanks, then one token: the wedge /\, a number, an identifier or an operator
_TOKEN = re.compile(r"\s*(/\\|[0-9]+|[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?|[+\-*/^(),])")

_ALIASES = {'x': 1, 'y': 2, 'z': 3}
# a field name is an identifier without a subscript, and not one the
# grammar reads first: ds, the coordinates x1.. and their differentials dx1..
_FIELD = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_SHADOWED = re.compile(r"ds|d?x[0-9]+")


def default_fields(m: int):
    return tuple(field_name(sigma) for sigma in range(1, m + 1))


def _tokenize(text: str) -> list:
    """The tokens of text as strings, then '' for the end.

    The scan skips what no token takes, so the tokens hold fewer
    characters than the text holds outside its blanks exactly when some
    character is unexpected.
    """
    tokens = _TOKEN.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        end = 0
        for mo in _TOKEN.finditer(text):
            if text[end:mo.start(1)].strip():
                break
            end = mo.end()
        gap = text[end:]
        at = end + len(gap) - len(gap.lstrip())
        raise InputSyntaxError(f"unexpected character {text[at]!r}", *_line_column(text, at))
    tokens.append("")
    return tokens


def _line_column(text: str, offset: int) -> tuple:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _atom_key(tokens: list, start: int):
    """The tokens from start through the first ')' after it, or None."""
    try:
        return tuple(tokens[start:tokens.index(')', start) + 1])
    except ValueError:
        return None


def _is_dx(name: str) -> bool:
    return name[:2] == "dx" and name[2:].isdigit()


@functools.lru_cache(maxsize=64)
def _roster(fields: tuple, m: int) -> tuple:
    """The field names, checked once per (names, m): m of them, each one
    the grammar can tell apart from its own identifiers, none repeated.
    A roster that fails is not cached, so it fails the same way again."""
    if len(fields) != m:
        raise ValueError(f"{m} field names needed, got {len(fields)}")
    for name in fields:
        if _FIELD.fullmatch(name) is None or _SHADOWED.fullmatch(name):
            raise ValueError(f"field name {name!r} cannot be told apart "
                             "from the grammar's own identifiers")
    if len(set(fields)) != len(fields):
        raise ValueError(f"field names repeat: {', '.join(fields)}")
    return fields


class _Parser:
    def __init__(self, text: str, ctx: Context, order: int, fields):
        self.ctx = ctx
        self.order = order
        self.fields = _roster(tuple(fields) if fields else default_fields(ctx.m), ctx.m)
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def error(self, message, k=None):
        """Raise an InputSyntaxError at token k, by default the next one."""
        k = self.pos if k is None else k
        mo = next(islice(_TOKEN.finditer(self.text), k, None), None)
        raise InputSyntaxError(message, *_line_column(
            self.text, mo.start(1) if mo else len(self.text)))

    def expect(self, kind):
        tok = self.tokens[self.pos]
        if not (tok.isdigit() if kind == 'NUMBER' else
                tok[:1].isalpha() if kind == 'IDENT' else tok == kind):
            self.error(f"expected {kind!r}, found {tok!r}")
        self.pos += 1
        return tok

    # -- grammar -----------------------------------------------------------

    def parse(self):
        """One operator-precedence loop over an operand stack and an operator
        stack.  A binary operator goes on the stack as its ``_BINARY`` entry
        (binding power, combine function), and '(' as (-1, whether the
        prefix signs before it negate the group), so no reduction passes
        it; the prefix signs before an atom negate the atom.  After each
        operand, every operator on top that binds at least as tightly as
        the next token combines, so a combine sees the token after its
        right operand, as in recursive descent.  A + or - combine adds its
        right operand into the running sum of its chain, which takes the
        left operand's place on the stack until the ``)`` or the end."""
        tokens, values, ops, names = self.tokens, [], [], {}
        pos, negate = 0, False
        while True:
            tok = tokens[pos]
            pos += 1
            if tok == '(':
                ops.append((-1, negate))
                negate = False
                continue
            if tok == '-':
                negate = not negate
                continue
            if tok == '+':
                continue
            if tok.isdigit():
                i = int(tok)
                value = Scalar({(): i} if i else {})
            elif (tok == 'ds' or tok == 'w' or tok == 'dy') and tokens[pos] == '(':
                # a covector is keyed by its tokens through its ')'
                key = _atom_key(tokens, pos - 1)
                value = names.get(key)
                if value is None:
                    self.pos = pos + 1
                    value = names[key] = (self.ds_atom() if tok == 'ds'
                                          else self.omega_atom(tok == 'dy'))
                pos += len(key) - 1
            elif tok in names:
                value = names[tok]
            elif tok[:1].isalpha():
                value = names[tok] = self.plain(tok, pos - 1)
            else:
                self.error(f"unexpected token {tok!r}", pos - 1)
            while True:
                if tokens[pos] == '^':
                    self.pos = pos
                    value = self.power(value)
                    pos = self.pos
                values.append(-value if negate else value)
                tok = tokens[pos]
                op = _BINARY.get(tok)
                bind = op[0] if op else 0
                if ops and ops[-1][0] >= bind:
                    self.pos = pos  # where a combine's error points
                    while ops and ops[-1][0] >= bind:
                        rhs = values.pop()
                        values.append(ops.pop()[1](self, values.pop(), rhs))
                if op:
                    pos += 1
                    ops.append(op)
                    negate = False
                    break
                value = values.pop()
                if type(value) is _Sum:
                    value = value.value(self.ctx)
                if not ops:
                    if tok:
                        self.error(f"trailing input starting at {tok!r}", pos)
                    return value
                if tok != ')':
                    self.error(f"expected ')', found {tok!r}", pos)
                pos += 1
                negate = ops.pop()[1]

    def power(self, base):
        self.pos += 1
        k = int(self.expect('NUMBER'))
        if isinstance(base, Form):
            self.error("cannot raise a form to a power")
        return base ** k

    # -- identifiers ---------------------------------------------------------

    def plain(self, name, k):
        """The value of a name not followed by '(': ds, dxN, xN or a field
        with its jet subscript, name the text of token k."""
        ctx = self.ctx
        if name == 'ds':
            return ds_block(ctx, ())
        if _is_dx(name):
            i = int(name[2:])
            if not 1 <= i <= ctx.n:
                raise UnknownIdentifier(f"dx{i}: base index out of range 1..{ctx.n}")
            return dx(ctx, i)
        if name[0] == 'x' and name[1:].isdigit():
            i = int(name[1:])
            if not 1 <= i <= ctx.n:
                raise UnknownIdentifier(f"x{i}: base index out of range 1..{ctx.n}")
            return symexpr.x(i)
        base, _, sub = name.partition('_')
        if base in self.fields:
            sigma = self.fields.index(base) + 1
            J = self.subscript(sub, k) if sub else ()
            if len(J) > self.order:
                raise OrderViolation(
                    f"{name}: jet order {len(J)} exceeds declared order {self.order}")
            return symexpr.y(sigma, *J)
        raise UnknownIdentifier(f"unknown identifier {name!r}")

    def subscript(self, sub: str, k: int):
        """The jet indices of sub, the text of token k."""
        J = []
        for ch in sub:
            if ch.isdigit():
                i = int(ch)
            elif ch in _ALIASES:
                i = _ALIASES[ch]
            else:
                self.error(f"bad jet subscript character {ch!r}", k)
            if not 1 <= i <= self.ctx.n:
                raise UnknownIdentifier(
                    f"jet index {i} out of range 1..{self.ctx.n}")
            J.append(i)
        return tuple(J)

    def ds_atom(self):
        """ds(i,..), read from the token after its '('."""
        block = []
        while True:
            i = int(self.expect('NUMBER'))
            if not 1 <= i <= self.ctx.n:
                raise UnknownIdentifier(f"ds index {i} out of range 1..{self.ctx.n}")
            block.append(i)
            if self.tokens[self.pos] == ',':
                self.pos += 1
                continue
            break
        self.expect(')')
        return ds_block(self.ctx, tuple(block))

    def omega_atom(self, is_dy: bool):
        """w(u,J) or dy(u,J), read from the token after its '('."""
        ctx, tokens = self.ctx, self.tokens
        name = self.expect('IDENT')
        if name not in self.fields:
            raise UnknownIdentifier(f"unknown field {name!r}")
        sigma = self.fields.index(name) + 1
        J = ()
        if tokens[self.pos] == ',':
            k = self.pos + 1
            sub = tokens[k]
            self.pos = k + 1
            if not (sub.isdigit() or sub[:1].isalpha()):
                self.error("expected jet subscript", k)
            J = self.subscript(sub, k)
            if len(J) > self.order + (1 if not is_dy else 0):
                raise OrderViolation(
                    f"contact index {sub}: order {len(J)} exceeds the working order")
        self.expect(')')
        form = omega(ctx, sigma, *J)
        if is_dy:
            # dy^sigma_J = omega^sigma_J + sum over j of y^sigma_{Jj} dx^j
            for j in range(1, ctx.n + 1):
                form.terms[_bit(('dx', j))] = symexpr.y(sigma, *J, j)
        return form


# -- operations on mixed scalar/form values ------------------------------------


class _Sum:
    """The running sum of one + - chain, in place of its left operand.

    ``terms`` is a {monomial: coefficient} map while ``form`` is false,
    and a {mask: {monomial: coefficient}} map once an operand is a
    nonzero form; an emptied bucket stays as {}.
    """

    __slots__ = ("form", "terms")

    def __init__(self, first):
        self.form = isinstance(first, Form)
        self.terms = ({w: dict(c.terms) for w, c in first.terms.items()} if self.form
                      else dict(first.terms))

    def add(self, b, c: int) -> None:
        """self += c b, with the type of the sum as one + gives it."""
        terms = self.terms
        if isinstance(b, Form):
            if not self.form:
                if not b.terms:
                    return
                self.form = True
                terms = self.terms = {0: terms} if terms else {}
            for w, v in b.terms.items():
                _add_terms(terms, w, v.terms, c)
        elif not self.form:
            _merge(terms, b.terms, c)
        elif any(terms.values()):
            _add_terms(terms, 0, b.terms, c)
        else:
            # a form that has cancelled to zero, plus a scalar, is the scalar
            self.form = False
            self.terms = dict(b.terms) if c == 1 else {m: -v for m, v in b.terms.items()}

    def value(self, ctx: Context):
        return _summed(ctx, self.terms) if self.form else Scalar(self.terms)


def _add(p, a, b, c=1):
    """The running sum a + c b, for a the sum so far or the chain's first term."""
    if type(a) is not _Sum:
        a = _Sum(a)
    a.add(b, c)
    return a


def _multiply(p, a, b):
    if isinstance(a, Form) and isinstance(b, Form):
        p.error("use /\\ to multiply forms")
    if isinstance(a, Form):
        return a.scale(b)
    if isinstance(b, Form):
        return b.scale(a)
    return a * b


def _divide(p, a, b):
    if isinstance(b, Form):
        p.error("cannot divide by a form")
    if b.is_zero():
        p.error("division by zero")
    if not b.is_rational():
        p.error("cannot divide by a non-constant expression")
    d = b.terms[()]
    if isinstance(a, Form):
        return a.scale(Scalar.from_fraction(Fraction(1, d)))
    if a.is_rational():
        # a constant over a constant is one Fraction
        return Scalar.from_fraction(Fraction(a.terms.get((), 0), d))
    return a * Scalar.from_fraction(Fraction(1, d))


def _wedge(p, a, b):
    a0 = a if isinstance(a, Form) else Form.from_scalar(p.ctx, a)
    b0 = b if isinstance(b, Form) else Form.from_scalar(p.ctx, b)
    if len(a0.terms) == 1 == len(b0.terms):
        # one mask: the product of the two coefficients, signed
        [(wa, ca)] = a0.terms.items()
        [(wb, cb)] = b0.terms.items()
        if wa & wb:
            return Form(p.ctx)
        c = ca * cb
        return Form(p.ctx, {wa | wb: c if _wedge_sign(wa, wb) == 1 else -c})
    return wedge(a0, b0)


# binding power and combine function of each binary operator, all left-associative
_BINARY = {'+': (1, _add), '-': (1, lambda p, a, b: _add(p, a, b, -1)),
           '/\\': (2, _wedge), '*': (3, _multiply), '/': (3, _divide)}


# -- public entry points ---------------------------------------------------------


def parse_scalar(text: str, ctx: Context, order: int, fields=None) -> Scalar:
    parser = _Parser(text, ctx, order, fields)
    value = parser.parse()
    if isinstance(value, Form):
        # a form comes only from a covector (ds, dxN, w(...), dy(...)) or a
        # wedge: name the first of those tokens
        tokens = parser.tokens
        parser.error("expected a scalar expression, found a form", next(
            k for k, tok in enumerate(tokens)
            if tok == '/\\' or tok == 'ds' or _is_dx(tok)
            or tok in ('w', 'dy') and tokens[k + 1] == '('))
    return value


def parse_lagrangian(text: str, ctx: Context, order: int, fields=None) -> Lagrangian:
    return Lagrangian(ctx, order, parse_scalar(text, ctx, order, fields))


def parse_form(text: str, ctx: Context, order: int | None = None, fields=None) -> Form:
    order = order if order is not None else ctx.r
    value = _Parser(text, ctx, order, fields).parse()
    return value if isinstance(value, Form) else Form.from_scalar(ctx, value)
