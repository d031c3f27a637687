"""Input grammar for Lagrangian densities and forms.

Coordinates are x1..xn; fiber fields are named identifiers mapped to
sigma = 1..m in roster order (u, v, w by default).  Jet subscripts take
index digits (u_12) or the letter aliases x,y,z for 1,2,3 (u_xy).  Form
atoms are dx1.., w(u,J), dy(u,J), ds, and ds(i,..); dy(u,J) is read in the
contact basis, as w(u,J) + u_Jj dx^j summed over j.

One precedence table, ``_BINARY``, orders the binary operators, all
left-associative: * and / bind tightest, then the wedge /\\, then + and -.
A prefix sign binds tighter than any of them, and a postfix ^NUMBER on an
atom or a parenthesized group tighter still.  ``_Parser.parse`` is one
loop over an explicit operand stack and operator stack, so nesting depth
costs no Python frames.
"""

from __future__ import annotations

import re

from . import symexpr
from .forms import Context, Form, ds_block, dx, omega, wedge
from .lepage import Lagrangian
from .printers import field_name
from .symexpr import Scalar


class InputSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class OrderViolation(ValueError):
    """A jet coordinate exceeds the declared order."""


class UnknownIdentifier(ValueError):
    """An identifier is neither a coordinate, a field, nor a form atom."""


_TOKEN = re.compile(r"""
    (?P<WEDGE>/\\)
  | (?P<NUMBER>\d+)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?)
  | (?P<OP>[+\-*/^(),])
  | (?P<WS>\s+)
""", re.VERBOSE)

_ALIASES = {'x': 1, 'y': 2, 'z': 3}
# a field name is an identifier without a subscript, and not one the
# grammar reads first: ds, the coordinates x1.. and their differentials dx1..
_FIELD = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_SHADOWED = re.compile(r"ds|d?x[0-9]+")
_DX = re.compile(r"dx[0-9]+")
_X = re.compile(r"x[0-9]+")


def default_fields(m: int):
    return tuple(field_name(sigma) for sigma in range(1, m + 1))


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    linestart = 0
    while pos < len(text):
        mo = _TOKEN.match(text, pos)
        if mo is None:
            raise InputSyntaxError(f"unexpected character {text[pos]!r}",
                                   line, pos - linestart + 1)
        kind = mo.lastgroup
        value = mo.group()
        if kind == 'WS':
            line += value.count("\n")
            if "\n" in value:
                linestart = mo.end() - len(value.rsplit("\n", 1)[-1])
        else:
            tokens.append((kind if kind != 'OP' else value, value,
                           line, mo.start() - linestart + 1))
        pos = mo.end()
    tokens.append(('END', '', line, pos - linestart + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: Context, order: int, fields):
        self.ctx = ctx
        self.order = order
        self.fields = tuple(fields) if fields else default_fields(ctx.m)
        if len(self.fields) != ctx.m:
            raise ValueError(f"{ctx.m} field names needed, got {len(self.fields)}")
        for name in self.fields:
            if _FIELD.fullmatch(name) is None or _SHADOWED.fullmatch(name):
                raise ValueError(f"field name {name!r} cannot be told apart "
                                 "from the grammar's own identifiers")
        if len(set(self.fields)) != len(self.fields):
            raise ValueError(f"field names repeat: {', '.join(self.fields)}")
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise InputSyntaxError(f"expected {kind!r}, found {tok[1]!r}",
                                   tok[2], tok[3])
        return tok

    def error(self, message):
        tok = self.peek()
        raise InputSyntaxError(message, tok[2], tok[3])

    # -- grammar -----------------------------------------------------------

    def parse(self):
        """One operator-precedence loop over an operand stack and an operator
        stack.  A binary operator goes on the stack as its ``_BINARY`` entry
        (binding power, combine function), and '(' as (-1, whether the
        prefix signs before it negate the group), so no reduction passes
        it; the prefix signs before an atom negate the atom.  After each
        operand, every operator on top that binds at least as tightly as
        the next token combines, so a combine sees the token after its
        right operand, as in recursive descent."""
        tokens, values, ops = self.tokens, [], []
        negate = False
        while True:
            kind = tokens[self.pos][0]
            if kind in ('+', '-', '('):
                self.pos += 1
                if kind == '(':
                    ops.append((-1, negate))
                    negate = False
                else:
                    negate ^= kind == '-'
                continue
            value = self.power(self.atom())
            while True:
                values.append(-value if negate else value)
                kind = tokens[self.pos][0]
                op = _BINARY.get(kind)
                bind = op[0] if op else 0
                while ops and ops[-1][0] >= bind:
                    rhs = values.pop()
                    values.append(ops.pop()[1](self, values.pop(), rhs))
                if op:
                    self.pos += 1
                    ops.append(op)
                    negate = False
                    break
                if not ops:
                    if kind != 'END':
                        self.error(f"trailing input starting at {self.peek()[1]!r}")
                    return values.pop()
                self.expect(')')
                negate = ops.pop()[1]
                value = self.power(values.pop())

    def power(self, base):
        if self.peek()[0] == '^':
            self.next()
            tok = self.expect('NUMBER')
            if isinstance(base, Form):
                self.error("cannot raise a form to a power")
            return base ** int(tok[1])
        return base

    def atom(self):
        tok = self.next()
        kind, value = tok[0], tok[1]
        if kind == 'NUMBER':
            return symexpr.rational(int(value))
        if kind == 'IDENT':
            return self.identifier(tok)
        raise InputSyntaxError(f"unexpected token {value!r}", tok[2], tok[3])

    # -- identifiers ---------------------------------------------------------

    def identifier(self, tok):
        name = tok[1]
        if name == 'ds':
            return self.ds_atom()
        if name in ('w', 'dy') and self.peek()[0] == '(':
            return self.omega_atom(name == 'dy')
        if _DX.fullmatch(name):
            i = int(name[2:])
            if not 1 <= i <= self.ctx.n:
                raise UnknownIdentifier(f"dx{i}: base index out of range 1..{self.ctx.n}")
            return dx(self.ctx, i)
        if _X.fullmatch(name):
            i = int(name[1:])
            if not 1 <= i <= self.ctx.n:
                raise UnknownIdentifier(f"x{i}: base index out of range 1..{self.ctx.n}")
            return symexpr.x(i)
        base, _, sub = name.partition('_')
        if base in self.fields:
            sigma = self.fields.index(base) + 1
            J = self.subscript(sub, tok) if sub else ()
            if len(J) > self.order:
                raise OrderViolation(
                    f"{name}: jet order {len(J)} exceeds declared order {self.order}")
            return symexpr.y(sigma, *J)
        raise UnknownIdentifier(f"unknown identifier {name!r}")

    def subscript(self, sub: str, tok):
        J = []
        for ch in sub:
            if ch.isdigit():
                i = int(ch)
            elif ch in _ALIASES:
                i = _ALIASES[ch]
            else:
                raise InputSyntaxError(f"bad jet subscript character {ch!r}",
                                       tok[2], tok[3])
            if not 1 <= i <= self.ctx.n:
                raise UnknownIdentifier(
                    f"jet index {i} out of range 1..{self.ctx.n}")
            J.append(i)
        return tuple(J)

    def ds_atom(self):
        if self.peek()[0] != '(':
            return ds_block(self.ctx, ())
        self.next()
        block = []
        while True:
            tok = self.expect('NUMBER')
            i = int(tok[1])
            if not 1 <= i <= self.ctx.n:
                raise UnknownIdentifier(f"ds index {i} out of range 1..{self.ctx.n}")
            block.append(i)
            if self.peek()[0] == ',':
                self.next()
                continue
            break
        self.expect(')')
        return ds_block(self.ctx, tuple(block))

    def omega_atom(self, is_dy: bool):
        self.expect('(')
        tok = self.expect('IDENT')
        if tok[1] not in self.fields:
            raise UnknownIdentifier(f"unknown field {tok[1]!r}")
        sigma = self.fields.index(tok[1]) + 1
        J = ()
        if self.peek()[0] == ',':
            self.next()
            sub = self.next()
            if sub[0] not in ('NUMBER', 'IDENT'):
                raise InputSyntaxError("expected jet subscript", sub[2], sub[3])
            J = self.subscript(sub[1], sub)
            if len(J) > self.order + (1 if not is_dy else 0):
                raise OrderViolation(
                    f"contact index {sub[1]}: order {len(J)} exceeds the working order")
        self.expect(')')
        form = omega(self.ctx, sigma, *J)
        if is_dy:
            # dy^sigma_J = omega^sigma_J + sum over j of y^sigma_{Jj} dx^j
            for j in range(1, self.ctx.n + 1):
                form = form + dx(self.ctx, j).scale(symexpr.y(sigma, *J, j))
        return form


# -- operations on mixed scalar/form values ------------------------------------


def _add(p, a, b):
    if isinstance(a, Form) != isinstance(b, Form):
        if isinstance(a, Form) and not a.terms:
            return b
        if isinstance(b, Form) and not b.terms:
            return a
        a0 = a if isinstance(a, Form) else Form.from_scalar(p.ctx, a)
        b0 = b if isinstance(b, Form) else Form.from_scalar(p.ctx, b)
        return a0 + b0
    return a + b


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
    if isinstance(a, Form):
        return a.scale(Scalar.one() / b)
    return a / b


def _wedge(p, a, b):
    a0 = a if isinstance(a, Form) else Form.from_scalar(p.ctx, a)
    b0 = b if isinstance(b, Form) else Form.from_scalar(p.ctx, b)
    return wedge(a0, b0)


# binding power and combine function of each binary operator, all left-associative
_BINARY = {'+': (1, _add), '-': (1, lambda p, a, b: _add(p, a, -b)),
           'WEDGE': (2, _wedge), '*': (3, _multiply), '/': (3, _divide)}


# -- public entry points ---------------------------------------------------------


def parse_scalar(text: str, ctx: Context, order: int, fields=None) -> Scalar:
    parser = _Parser(text, ctx, order, fields)
    value = parser.parse()
    if isinstance(value, Form):
        # a form comes only from a covector (ds, dxN, w(...), dy(...)) or a
        # wedge: name the first of those tokens
        tokens = parser.tokens
        _, _, line, column = next(
            tok for t, tok in enumerate(tokens)
            if tok[0] == 'WEDGE' or tok[0] == 'IDENT' and (
                tok[1] == 'ds' or _DX.fullmatch(tok[1])
                or tok[1] in ('w', 'dy') and tokens[t + 1][0] == '('))
        raise InputSyntaxError("expected a scalar expression, found a form", line, column)
    return value


def parse_lagrangian(text: str, ctx: Context, order: int, fields=None) -> Lagrangian:
    return Lagrangian(ctx, order, parse_scalar(text, ctx, order, fields))


def parse_form(text: str, ctx: Context, order: int | None = None, fields=None) -> Form:
    order = order if order is not None else ctx.r
    value = _Parser(text, ctx, order, fields).parse()
    return value if isinstance(value, Form) else Form.from_scalar(ctx, value)
