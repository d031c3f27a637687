"""Command-line interface.

Subcommands: decompose, ieuler, residual, split, splitlike, alpha, pc, kb,
el, verify.  Dimensions and the working order come from flags only; a
form's codegree is read off the form.  The exit status is one of EXIT_CODES:
an input error is a ValueError, a failed self-check an AssertionError.  The
expression argument reads stdin when given as "-".

main(argv) may be called repeatedly in one process.  The argparse tree is
built on the first call and kept; every call parses into a fresh
Namespace, reads its own stdin and streams, and opens a fresh memo scope,
which also pauses the cyclic garbage collector for the call
(``symexpr._memo_scope``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .forms import Context, GradingMismatch, codegree, p_k
from .interior_euler import interior_euler, residual
from .lepage import _kb, euler_lagrange, poincare_cartan
from .parser import default_fields, parse_form, parse_lagrangian
from .printers import form_json, form_json_doc, form_latex, form_text
from .symexpr import _memo_scope
from .varmorph import (alpha_discrepancy, from_contact_form,
                       split_canonical_codegree_s, split_like, to_contact_form)
from .verify import CHECKS, run_identity

EXIT_CODES = """exit status:
  0  success, or every verify identity PASSed
  1  a verify identity FAILed
  2  usage, parse or input error
  3  internal error: a runtime self-check of the engine failed"""


def _dims(sub):
    sub.add_argument("--base-dim", "-n", type=int, default=2,
                     help="base dimension n (default 2)")
    sub.add_argument("--fiber-dim", "-m", type=int, default=1,
                     help="fiber dimension m (default 1)")


def _common(sub):
    _dims(sub)
    sub.add_argument("--order", "-r", type=int, default=1,
                     help="declared jet order of the input (default 1)")
    sub.add_argument("--format", choices=("text", "latex", "json"),
                     default="text", help="output format")
    sub.add_argument("--fields", default=None,
                     help="comma-separated fiber field names (default u,v,w,...)")


def _expr_arg(sub):
    sub.add_argument("expr", help="expression, or - to read stdin")


# parsing leaves the tree as it was, and argparse looks sys.stdout and
# sys.stderr up when it prints, so one tree serves every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jetform",
        description="symbolic contact-form calculus on jet bundles",
        epilog=EXIT_CODES, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = ap.add_subparsers(dest="command", required=True)

    for name, doc in [
            ("decompose", "contact components p_0..p_q of a form"),
            ("ieuler", "interior Euler operator of a form"),
            ("residual", "residual operator of a form of any codegree"),
            ("split", "canonical splitting of the associated morphism"),
            ("splitlike", "split-like decomposition of the associated morphism"),
            ("alpha", "boundary discrepancy of the two splittings"),
            ("pc", "Poincare-Cartan form of a Lagrangian"),
            ("kb", "Krupka-Betounes equivalent of a Lagrangian"),
            ("el", "Euler-Lagrange source form of a Lagrangian")]:
        sub = subs.add_parser(name, help=doc)
        _common(sub)
        _expr_arg(sub)
        if name == "ieuler":
            sub.add_argument("--contact", type=int, default=None,
                             help="contact degree k (default: degree of the form)")
        if name == "residual":
            sub.add_argument("--contact", type=int, default=None)
            sub.add_argument("--codegree", type=int, default=None,
                             help="check that the form has codegree s "
                                  "(default: read off the form)")
        if name == "kb":
            sub.add_argument("--variant", choices=("plain", "generalized"),
                             default="plain", help="second-order variant")

    sub = subs.add_parser("verify", help="run a named identity on seeded data")
    _dims(sub)
    sub.add_argument("--identity", required=True,
                     choices=sorted(CHECKS) + ["all"])
    sub.add_argument("--seed", type=int, default=0)
    return ap


def _read_expr(args) -> str:
    if args.expr == "-":
        return sys.stdin.read()
    return args.expr


def _fields(args, m: int):
    if args.fields:
        return tuple(s.strip() for s in args.fields.split(","))
    return default_fields(m)


def _emit_form(rho, args, fields) -> str:
    if args.format == "text":
        return form_text(rho, fields)
    if args.format == "latex":
        return form_latex(rho, fields)
    return form_json(rho, fields)


def _emit_parts(parts, args, fields) -> str:
    if args.format == "json":
        doc = {name: form_json_doc(rho, fields) for name, rho in parts}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    render = form_text if args.format == "text" else form_latex
    return "\n".join(f"{name}: {render(rho, fields)}" for name, rho in parts)


def _run(args) -> int:
    cmd = args.command
    if cmd == "verify":
        ctx = Context(n=args.base_dim, m=args.fiber_dim)
        names = sorted(CHECKS) if args.identity == "all" else [args.identity]
        status = 0
        for name in names:
            ok, detail = run_identity(name, args.seed, n=ctx.n, m=ctx.m)
            print(f"{'PASS' if ok else 'FAIL'} {name} (seed {args.seed}): {detail}")
            status = status or (0 if ok else 1)
        return status

    ctx = Context(n=args.base_dim, m=args.fiber_dim, r=args.order)
    fields = _fields(args, ctx.m)
    text = _read_expr(args)
    if cmd in ("pc", "kb", "el"):
        lam = parse_lagrangian(text, ctx, args.order, fields)
        if cmd == "pc":
            rho = poincare_cartan(lam)
        elif cmd == "el":
            rho = euler_lagrange(lam)
        else:
            rho = _kb(lam, args.variant)
        print(_emit_form(rho, args, fields))
        return 0

    rho = parse_form(text, ctx, args.order, fields)
    if cmd == "decompose":
        top = max((w.bit_count() for w in rho.terms), default=0)
        parts = [(f"p_{k}", p_k(rho, k)) for k in range(top + 1)]
        parts = [(name, part) for name, part in parts if not part.is_zero()] \
            or [("p_0", p_k(rho, 0))]
        print(_emit_parts(parts, args, fields))
        return 0
    if cmd == "ieuler":
        k = args.contact if args.contact is not None else max(rho.contact_degree(), 1)
        print(_emit_form(interior_euler(rho, k), args, fields))
        return 0
    if cmd == "residual":
        k = args.contact if args.contact is not None else max(rho.contact_degree(), 1)
        part, expected = p_k(rho, k), args.codegree
        if expected is not None and not part.is_zero() and codegree(part) != expected:
            raise GradingMismatch(f"form has codegree {codegree(part)}, expected {expected}")
        print(_emit_form(residual(rho, k), args, fields))
        return 0

    V = from_contact_form(rho)
    if cmd == "split":
        res = split_canonical_codegree_s(V)
    elif cmd == "splitlike":
        res = split_like(V)
    else:
        a, da = alpha_discrepancy(V)
        print(_emit_parts([("alpha", to_contact_form(a)),
                           ("Div(alpha)", to_contact_form(da))], args, fields))
        return 0
    print(_emit_parts([("volume", to_contact_form(res.volume)),
                       ("boundary", to_contact_form(res.boundary))], args, fields))
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _memo_scope():
            return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a runtime self-check of interior_euler or lepage failed: eta
        # recomposition, xi rebuild, the Poincare-Cartan cross-check or
        # kb's recurrence cross-check
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
