"""The parser against the reference parser of ``parser_oracle``, and the
command line on drawn expressions.

Every draw must give, from ``parse_form`` and ``parse_scalar`` and from the
reference, the same value of the same type, or the same exception class
with the same message, line and column included.
"""

import contextlib
import io
import random
import sys

import hypothesis.strategies as st
from hypothesis import given, settings

import parser_oracle as oracle
from expressions import EXPRESSION, FUZZ_ORDER
from jetform import cli, parser, printers, randomgen, varmorph
from jetform.forms import Context

CTX22 = Context(n=2, m=2)


def _outcome(parse, text, ctx, order, fields):
    """(type of the value, value), or (exception class, message)."""
    try:
        value = parse(text, ctx, order, fields)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(value), value


def _agree(text, ctx=CTX22, order=FUZZ_ORDER, fields=None):
    for new, old in ((parser.parse_form, oracle.parse_form),
                     (parser.parse_scalar, oracle.parse_scalar)):
        assert _outcome(new, text, ctx, order, fields) \
            == _outcome(old, text, ctx, order, fields), text


# characters that break a valid text: unexpected ones (non-ASCII digits
# among them), stray operators and separators, and line breaks
DEBRIS = ["٣", "５", "_", "\\", ".", "$", "\n", "\n\n ", "(", ")", ",", "^", "^-1", "/\\",
          "*", "/", "+", "-", " ", "1", "u", "u_", "w(", "ds(", "dx", "x0"]


@st.composite
def _damaged(draw, text):
    """text with a few pieces of debris put in, and pieces cut out."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(DEBRIS)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
    return text


# valid texts over several lines, then the same with the damage on a later line
LINES = st.lists(EXPRESSION, min_size=2, max_size=4).map(" +\n  ".join)
DAMAGED_LATE = st.tuples(st.lists(EXPRESSION, min_size=1, max_size=3),
                         EXPRESSION.flatmap(_damaged)).map(
    lambda t: " -\n".join(t[0] + [t[1]]))


@settings(max_examples=400, deadline=None)
@given(text=EXPRESSION | EXPRESSION.flatmap(_damaged) | LINES | DAMAGED_LATE)
def test_parser_agrees_with_the_reference_on_drawn_text(text):
    _agree(text)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 2),
       order=st.integers(1, 2))
def test_parser_agrees_with_the_reference_on_the_benchmark_inputs(seed, n, m, order):
    # the shapes of the cli-poly requests: a density, a form, the contact
    # form of a morphism, and a form in dy-notation
    rng = random.Random(seed)
    ctx = Context(n=n, m=m, r=order)
    _agree(printers.scalar_text(randomgen.rand_density(rng, ctx, order)), ctx, order)
    k = rng.randint(1, 2)
    _agree(printers.form_text(randomgen.rand_form(rng, ctx, n, k, order)), ctx, order)
    V = randomgen.rand_morphism(rng, ctx, rng.randint(0, n - 1), rng.randint(1, 2))
    _agree(printers.form_text(varmorph.to_contact_form(V)), ctx, 1)
    _agree(_dy_text(rng, ctx, order), ctx, order)


def _dy_text(rng, ctx, order):
    """A random form in dy-notation: coefficients times wedges of dx, dy and w."""
    covs = [f"dx{i}" for i in range(1, ctx.n + 1)]
    for sigma in range(1, ctx.m + 1):
        for J in ["", *map(str, range(1, ctx.n + 1))]:
            atom = f"{printers.field_name(sigma)},{J}" if J else printers.field_name(sigma)
            covs += [f"dy({atom})", f"w({atom})"]
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = printers.scalar_text(randomgen.rand_scalar(rng, ctx, order, terms=1))
        terms.append(f"({coeff}) * " + " /\\ ".join(rng.sample(covs, rng.randint(1, 3))))
    return " + ".join(terms)


FIELDS = [("phi", "psi"), ("a", "b"), ("u2", "x"), ("v", "u"), ("q", "q"), ("dx1", "u"),
          ("ds", "u"), ("x1", "u"), ("u",), ("u_1", "v")]


@settings(max_examples=100, deadline=None)
@given(fields=st.sampled_from(FIELDS), seed=st.integers(0, 2**32 - 1),
       text=EXPRESSION | EXPRESSION.flatmap(_damaged))
def test_parser_agrees_with_the_reference_with_custom_fields(fields, seed, text):
    # names of the drawn text are read with other fields; the printed
    # density and form use the fields, valid or not
    rng = random.Random(seed)
    _agree(text, fields=fields)
    if len(fields) == CTX22.m:
        rho = randomgen.rand_form(rng, CTX22, 1, 1, 1)
        _agree(printers.form_text(rho, fields), fields=fields)
        lam = randomgen.rand_density(rng, CTX22, 1)
        _agree(printers.scalar_text(lam, fields), fields=fields)


def test_a_number_is_ascii_digits_only():
    # non-ASCII digits are unexpected characters, wherever they stand
    for text, column in [("u_1^2 + ٣*u", 9), ("ds(٣)", 4), ("u_٣", 2), ("５", 1),
                         ("u +\n  ２", 3)]:
        for parse in (parser.parse_form, parser.parse_scalar):
            try:
                parse(text, CTX22, 1)
            except parser.InputSyntaxError as exc:
                assert str(exc).startswith("unexpected character"), text
                assert exc.column == column, text
            else:
                raise AssertionError(text)


def _run(argv):
    # the expression "-" reads stdin, which then holds that same text
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(argv[-1])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=EXPRESSION | EXPRESSION.flatmap(_damaged))
def test_cli_on_drawn_expressions_exits_0_or_2_and_prints_the_same_twice(text):
    # decompose takes any drawn text, el the scalar ones; an input error
    # exits 2 with a message, never 3 or a traceback, and the JSON output
    # of one request is the same bytes on a second call
    try:
        parser.parse_scalar(text, CTX22, FUZZ_ORDER)
        commands = ["decompose", "el"]
    except ValueError:
        commands = ["decompose"]
    for command in commands:
        argv = [command, "-n", "2", "-m", "2", "-r", str(FUZZ_ORDER), "--format", "json",
                "--", text]
        first = _run(argv)
        code, out, err = first
        assert code in (0, 2), (argv, err)
        assert (out != "") == (code == 0) and (err != "") == (code == 2), argv
        assert "Traceback" not in err
        assert _run(argv) == first, argv


def test_cli_reads_a_non_ascii_digit_as_an_unexpected_character():
    for argv, column in [(["el", "-n", "2", "-m", "1", "-r", "1", "--", "u_1^2 + ٣*u"], 9),
                         (["decompose", "-n", "3", "--", "ds(٣)"], 4),
                         (["decompose", "-n", "2", "--", "５*dx1"], 1)]:
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: unexpected character {argv[-1][column - 1]!r} " \
                      f"(line 1, column {column})\n"
