import argparse
import gc
import json
import random
import re
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from jetform import cli, interior_euler, lepage, parser, varmorph, verify
from jetform import symexpr as se
from jetform.cli import main
from jetform.forms import (Context, Form, _summed, ds_block, dx, omega,
                           volume, wedge)
from jetform.parser import (InputSyntaxError, OrderViolation,
                            UnknownIdentifier, parse_form, parse_lagrangian,
                            parse_scalar)
from jetform.printers import form_json, form_latex, form_text
from jetform.randomgen import rand_form
from expressions import EXPRESSION, FUZZ_ORDER
from fraction_ops import fraction_ops

CTX21 = Context(n=2, m=1)
CTX22 = Context(n=2, m=2)
CTX11 = Context(n=1, m=1)


# -- parsing ------------------------------------------------------------------------

def test_parse_dirichlet_density():
    lam = parse_lagrangian("1/2*(u_x^2 + u_y^2)", CTX21, 1)
    assert lam.density == se.rational(1, 2) * (se.y(1, 1) ** 2 + se.y(1, 2) ** 2)


def test_parse_null_lagrangian():
    lam = parse_lagrangian("u_x*v_y - u_y*v_x", CTX22, 1)
    assert lam.density == se.y(1, 1) * se.y(2, 2) - se.y(1, 2) * se.y(2, 1)


def test_parse_digit_and_letter_subscripts_agree():
    a = parse_lagrangian("u_12", Context(n=2, m=1), 2).density
    b = parse_lagrangian("u_xy", Context(n=2, m=1), 2).density
    assert a == b == se.y(1, 1, 2)


def test_order_violation():
    with pytest.raises(OrderViolation):
        parse_lagrangian("u_xx", CTX21, 1)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse_lagrangian("q_x", CTX21, 1)
    with pytest.raises(UnknownIdentifier):
        parse_form("dx3", CTX21, 1)


def test_syntax_error_carries_position():
    with pytest.raises(InputSyntaxError) as exc:
        parse_lagrangian("u_x + ", CTX21, 1)
    assert exc.value.line == 1
    assert exc.value.column >= 6


def test_parse_form_atoms():
    f = parse_form("w(u) /\\ ds(1)", CTX21, 1)
    assert f == wedge(omega(CTX21, 1), ds_block(CTX21, (1,)))
    f2 = parse_form("u_1 * w(u,1) /\\ dx1", CTX11, 1)
    assert f2 == wedge(omega(CTX11, 1, 1), dx(CTX11, 1)).scale(se.y(1, 1))
    assert parse_form("dx1 /\\ dx1", CTX21, 1).is_zero()
    assert parse_form("ds", CTX21, 1) == volume(CTX21)
    assert parse_form("ds(1,2)", Context(n=3, m=1), 1) == ds_block(Context(n=3, m=1), (1, 2))


def test_parse_dy_goes_through_contact_basis():
    f = parse_form("dy(u)", CTX11, 0)
    assert f == omega(CTX11, 1) + dx(CTX11, 1).scale(se.y(1, 1))


def test_parse_dy_and_omega_on_one_coordinate_do_not_cancel():
    # dy^u = w^u + u_j dx^j, so dy(u) /\ w(u) keeps the dx^j /\ w(u) part
    f = parse_form("dy(u) /\\ w(u)", CTX21, 1)
    assert f == (wedge(dx(CTX21, 1), omega(CTX21, 1)).scale(se.y(1, 1))
                 + wedge(dx(CTX21, 2), omega(CTX21, 1)).scale(se.y(1, 2)))
    assert parse_form("w(u) /\\ dy(u)", CTX21, 1) == -f


def test_power_binds_tighter_than_product():
    lam = parse_lagrangian("2*u_x^2", CTX21, 1)
    assert lam.density == se.rational(2) * se.y(1, 1) ** 2


def test_unary_minus_and_rationals():
    lam = parse_lagrangian("-3/4*u + 1/4*u", CTX21, 1)
    assert lam.density == se.rational(-1, 2) * se.y(1)


def test_custom_field_names():
    lam = parse_lagrangian("phi_x^2", CTX21, 1, fields=("phi",))
    assert lam.density == se.y(1, 1) ** 2


@pytest.mark.parametrize("fields", [("a", "a"), ("ds", "u"), ("x1", "u"),
                                    ("u", "dx2"), ("u", "a_b"), ("u", "")])
def test_field_names_the_parser_cannot_tell_apart_are_rejected(fields):
    with pytest.raises(ValueError, match="field name"):
        parse_lagrangian("u_1", CTX22, 1, fields=fields)


def test_field_roster_is_checked_once_per_names_and_m():
    parser._roster.cache_clear()
    for _ in range(3):
        parse_lagrangian("phi_x^2", CTX21, 1, fields=("phi",))
        parse_lagrangian("phi_x^2", CTX21, 1, fields=["phi"])
    info = parser._roster.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_nesting_depth_costs_no_recursion():
    # the parser keeps its own stacks, so depth is bounded by memory only
    depth = 10_000
    u1 = se.y(1, 1)
    assert parse_scalar("(" * depth + "u_1" + ")" * depth, CTX21, 1) == u1
    assert parse_scalar("-" * depth + "u_1", CTX21, 1) == u1
    assert parse_scalar("-" * (depth - 1) + "u_1", CTX21, 1) == -u1
    assert parse_scalar("(-" * depth + "u_1" + ")" * depth, CTX21, 1) == u1


def test_field_names_u_v_w_stay_valid():
    ctx = Context(n=3, m=3)
    lam = parse_lagrangian("u_1*v_2*w_3 + w", ctx, 1, fields=("u", "v", "w"))
    assert lam.density == se.y(1, 1) * se.y(2, 2) * se.y(3, 3) + se.y(3)


# -- printing -----------------------------------------------------------------------

def golden_corpus():
    rng = random.Random(51)
    forms = [
        wedge(omega(CTX21, 1), volume(CTX21)).scale(se.y(1, 1)),
        ds_block(Context(n=3, m=2), (2,)),
        omega(CTX11, 1, 1).scale(se.rational(-5, 3)),
        volume(CTX22).scale(se.y(1) * se.y(2, 2) - se.x(1)),
    ]
    for _ in range(8):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        ctx = Context(n=n, m=m)
        forms.append(rand_form(rng, ctx, rng.randint(0, n), rng.randint(0, 2),
                               rng.randint(0, 2)))
    return forms


def test_text_round_trip_on_golden_corpus():
    for rho in golden_corpus():
        text = form_text(rho)
        back = parse_form(text, rho.ctx, max(rho.order(), 1) + 1)
        assert back == rho, text


def test_text_round_trip_scalar_zero():
    assert parse_form("0", CTX21, 1).is_zero()


def test_json_is_deterministic_and_versioned():
    rho = golden_corpus()[0]
    a = form_json(rho)
    b = form_json(rho)
    assert a == b
    doc = json.loads(a)
    assert doc["version"] == "jetform-json/1"
    assert doc["grading"] == {"horizontal": 2, "contact": 1}
    assert all(set(t) == {"coeff", "wedge"} for t in doc["terms"])


def test_printing_makes_no_fraction():
    # sign and magnitude come off numerator and denominator, and the sign a
    # term written against ds takes is applied while printing: no Fraction made
    ctx = Context(n=3, m=2)
    rho = rand_form(random.Random(52), ctx, 3, 1, 1).scale(se.rational(-5, 6))
    rho = rho + rand_form(random.Random(53), ctx, 1, 1, 1).scale(se.rational(1, 4))
    assert any(c.denominator > 1 for v in rho.terms.values() for c in v.terms.values())
    with fraction_ops() as ops:
        printed = form_text(rho), form_latex(rho), form_json(rho)
    assert sum(ops.values()) == 0
    assert parse_form(printed[0], ctx, 2) == rho


def test_latex_is_delimiter_balanced():
    for rho in golden_corpus():
        tex = form_latex(rho)
        assert tex.count("{") == tex.count("}")
        assert tex.count(r"\left(") == tex.count(r"\right)")


# -- CLI ---------------------------------------------------------------------------

def run_cli(argv, stdin_text=None, capsys=None):
    import io
    import contextlib
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        stdin_backup = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if stdin_text is not None:
            sys.stdin = stdin_backup
    return code, out.getvalue(), err.getvalue()


def test_cli_el_laplace():
    code, out, _ = run_cli(["el", "--base-dim", "2", "--fiber-dim", "1",
                            "--order", "1", "1/2*(u_x^2+u_y^2)"])
    assert code == 0
    assert out.strip() == "(-u_11 - u_22) * w(u) /\\ ds"


def test_cli_kb_null_lagrangian():
    code, out, _ = run_cli(["kb", "--base-dim", "2", "--fiber-dim", "2",
                            "--order", "1", "u_x*v_y - u_y*v_x"])
    assert code == 0
    assert "w(u) /\\ w(v)" in out


def test_cli_verify_pass():
    code, out, _ = run_cli(["verify", "--identity", "prop-da",
                            "--base-dim", "2", "--fiber-dim", "1", "--seed", "7"])
    assert code == 0
    assert out.startswith("PASS prop-da")


def test_cli_verify_fail_names_the_smallest_differing_term(monkeypatch):
    monkeypatch.setattr(varmorph, "divergence",
                        lambda Q: varmorph.VariationalMorphism(Q.ctx, Q.s - 1))
    code, out, _ = run_cli(["verify", "-n", "3", "-m", "2", "--identity", "prop-da"])
    assert code == 1
    assert out.startswith("FAIL prop-da")
    assert re.search(r"^\w+ volume: smallest differing term: rebuilt .+, expected 0$",
                     out, re.M)
    # a compared pair prints the term from both sides
    chain = lepage._chain
    monkeypatch.setattr(verify, "_chain", lambda lam: [rho.scale(2) for rho in chain(lam)])
    code, out, _ = run_cli(["verify", "--identity", "kb-first"])
    assert (code, out) == (1, "FAIL kb-first (seed 0): nonzero difference\nterminal: "
                           "smallest differing term: rebuilt (3) * dx1 /\\ w(u), "
                           "expected (3/2) * dx1 /\\ w(u)\n")


def test_cli_verify_prop_div_fails_when_the_chi_gather_is_negated(monkeypatch):
    gather = verify._gathered_chi
    monkeypatch.setattr(verify, "_gathered_chi", lambda *args: -gather(*args))
    code, out, _ = run_cli(["verify", "--identity", "prop-div"])
    assert code == 1
    assert out.startswith("FAIL prop-div")


def test_cli_usage_error_is_2():
    code, _, _ = run_cli(["el"])  # missing expression
    assert code == 2
    code, _, err = run_cli(["el", "--base-dim", "2", "--order", "1", "u_xx"])
    assert code == 2
    assert "order" in err


@pytest.mark.parametrize("argv", [["el", "1/0"], ["el", "u/0"],
                                  ["decompose", "dx1/0"]])
def test_cli_division_by_zero_is_2(argv):
    code, out, err = run_cli(argv[:1] + ["--base-dim", "2", "--fiber-dim", "1",
                                         "--order", "1"] + argv[1:])
    assert code == 2
    assert out == ""
    assert "division by zero" in err


@pytest.mark.parametrize("argv", [["el", "u/u_x"], ["decompose", "dx1/(u + 1)"]])
def test_cli_non_constant_divisor_is_2(argv):
    code, out, err = run_cli(argv[:1] + ["--base-dim", "2", "--fiber-dim", "1",
                                         "--order", "1"] + argv[1:])
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: cannot divide by a non-constant expression "
                        r"\(line 1, column \d+\)\n", err)


@pytest.mark.parametrize("expr,line,column", [
    ("u_1^2 + 3*dx2", 1, 11),
    ("u_1 /\\ u_2", 1, 5),
    ("u_x*(1 +\n  w(u,1))", 2, 3),
    ("u_1 + dy(u) + ds", 1, 7),
])
def test_cli_form_where_a_scalar_is_expected_names_its_first_covector(expr, line, column):
    code, out, err = run_cli(["el", "-n", "2", "-m", "1", "--", expr])
    assert code == 2
    assert out == ""
    assert err == ("error: expected a scalar expression, found a form "
                   f"(line {line}, column {column})\n")


@pytest.mark.parametrize("argv,message", [
    (["residual", "--codegree", "0", "u_1 * w(u,1) /\\ dx2"],
     "form has codegree 1, expected 0"),
    (["residual", "w(u) /\\ dx1 + w(u) /\\ dx1 /\\ dx2"],
     "mixed horizontal degrees"),
    (["residual", "--contact", "0", "u_1 * w(u,1) /\\ ds"],
     "residual operator needs contact degree k >= 1"),
    (["residual", "--contact", "-1", "u_1 * w(u,1) /\\ ds"],
     "residual operator needs contact degree k >= 1"),
    (["residual", "--codegree", "-1", "u_1 * w(u,1) /\\ ds"],
     "form has codegree 0, expected -1"),
])
def test_cli_grading_mismatch_is_2(argv, message):
    code, out, err = run_cli(argv[:1] + ["--base-dim", "2", "--fiber-dim", "1",
                                         "--order", "1"] + argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("fields", ["a,a", "ds,u", "u,x1", "dx1,u"])
def test_cli_indistinguishable_fields_are_2(fields):
    code, out, err = run_cli(["el", "-n", "2", "-m", "2", "--fields", fields,
                              "a_1^2*a_2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: field name") and err.count("\n") == 1


@pytest.mark.parametrize("fields", ["a,a", "ds,u", "u", "u,v,w"])
def test_cli_bad_fields_fail_alike_on_every_call(fields):
    # the roster check is cached, but a failed check is not: the second
    # call checks again and fails with the same message
    argv = ["el", "-n", "2", "-m", "2", "--fields", fields, "u_1"]
    first = run_cli(argv)
    assert first[0] == 2 and first[1] == "" and first[2].startswith("error: ")
    assert run_cli(argv) == first


@pytest.mark.parametrize("flag", [["--format", "json"], ["--fields", "a"],
                                  ["--order", "2"]])
def test_cli_verify_rejects_flags_it_does_not_read(flag):
    code, out, err = run_cli(["verify", "--identity", "eq32", *flag])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("expr", ["(" * 500 + "u_1" + ")" * 500, "-" * 3000 + "u_1"],
                         ids=["500-parentheses", "3000-minus-signs"])
def test_cli_deep_nesting_parses_like_the_bare_expression(expr):
    argv = ["el", "-n", "2", "-m", "1", "-r", "1", "--"]
    bare = run_cli(argv + ["u_1"])
    assert bare[0] == 0
    assert run_cli(argv + [expr]) == bare


def test_exit_status_follows_the_exception_class():
    from jetform import forms, varmorph
    input_errors = (InputSyntaxError, OrderViolation, UnknownIdentifier,
                    varmorph.NotOneContact, lepage.UnsupportedOrder,
                    forms.GradingMismatch)
    for cls in input_errors:
        assert issubclass(cls, ValueError), cls
    for cls in (interior_euler.RecompositionFailure, interior_euler.ExpansionMismatch):
        assert issubclass(cls, AssertionError), cls
    assert interior_euler.GradingMismatch is forms.GradingMismatch


@pytest.mark.parametrize("identity", sorted(cli.CHECKS) + ["all"])
def test_cli_verify_at_one_base_dimension(identity):
    code, out, err = run_cli(["verify", "-n", "1", "-m", "1",
                              "--identity", identity])
    assert code == 0, err
    assert out.startswith("PASS")


@pytest.mark.parametrize("expr", ["u_1 * w(u,1) /\\ ds",
                                  "u_1 * w(v,12) /\\ ds + v_2 * w(u,11) /\\ ds"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_split_and_splitlike_agree_at_codegree_zero(expr, fmt):
    outs = []
    for cmd in ("split", "splitlike"):
        code, out, err = run_cli([cmd, "-n", "2", "-m", "2", "-r", "2",
                                  "--format", fmt, expr])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def _recompose_nothing(self):
    return Form.zero(self.ctx)


def _drop_derivatives(ctx, parts, D=1):
    # the sum over J of d_J parts[J], divided by D, with every nonempty J dropped
    return _summed(ctx, parts.get((), {}), D)


@pytest.mark.parametrize("module,name,broken,message", [
    (interior_euler.EtaDecomposition, "recompose", _recompose_nothing,
     "eta family does not recompose"),
    (interior_euler, "total_derivative_sum", _drop_derivatives,
     "xi telescoping does not rebuild"),
    (lepage, "poincare_cartan_closed", lambda lam: Form.zero(lam.ctx),
     "residual route disagrees"),
])
def test_cli_failed_self_check_is_internal_error_3(monkeypatch, module, name,
                                                   broken, message):
    monkeypatch.setattr(module, name, broken)
    code, out, err = run_cli(["pc", "--base-dim", "2", "--fiber-dim", "1",
                              "--order", "1", "1/2*(u_x^2+u_y^2)"])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and message in err
    # every self-check names the smallest term in which its two sides differ
    assert "; smallest differing term: rebuilt " in err


def _formal_perturbations():
    """(D_2 G, D_1 F minus its chain rule) at n = 2, m = 1: a formal term
    that expands to the nonzero G'x2, and a formally nonzero one that
    expands to zero."""
    F = se.opaque("F", n=2, m=1, order=1)
    G = se.opaque("G", n=2, m=1, order=-1)
    with se._formal_scope():
        dF, dG = se.total_derivative(F, 1), se.total_derivative(G, 2)
    return dG * se.y(1, 1), dF - se.expand(dF)


def _perturb_theta(monkeypatch, s):
    real = lepage._step

    def step(lam, prev, q):
        rho = real(lam, prev, q)
        return rho + volume(lam.ctx).scale(s) if q == 1 else rho

    monkeypatch.setattr(lepage, "_step", step)


def _perturb_rebuild(monkeypatch, s):
    # the exactness rebuild and the residual's trie sum both gain s w(u) /\ ds
    real = interior_euler.total_derivative_sum
    monkeypatch.setattr(interior_euler, "total_derivative_sum", lambda ctx, parts, *D: real(
        ctx, parts, *D) + wedge(omega(ctx, 1), volume(ctx)).scale(s))


def _perturb_tower(monkeypatch, s):
    # the first-order closed tower of kb's cross-check gains s ds
    real = lepage.krupka_betounes_first
    monkeypatch.setattr(lepage, "krupka_betounes_first",
                        lambda lam: real(lam) + volume(lam.ctx).scale(s))


@pytest.mark.parametrize("perturb,message", [
    (_perturb_theta, "residual route disagrees with the chart Poincare-Cartan form; "
     "decomposition bug; smallest differing term: rebuilt (G'x2*u_1) * ds, expected 0"),
    (_perturb_rebuild, "xi telescoping does not rebuild p_k rho (k=1, s=0, D=1); "
     "smallest differing term: rebuilt (G'x2*u_1) * w(u) /\\ ds, expected 0"),
    (_perturb_tower, "recurrence and closed form disagree; "
     "smallest differing term: rebuilt 0, expected (G'x2*u_1) * ds"),
])
def test_self_checks_decide_formal_differences_by_their_expansion(monkeypatch, perturb,
                                                                   message):
    # a formal difference is expanded before it is read: one that expands to
    # a nonzero term fails and names it, one that expands to zero passes;
    # only kb reads the closed tower
    cmd, build = (("kb", lepage._kb) if perturb is _perturb_tower
                  else ("pc", lepage.poincare_cartan))
    argv = [cmd, "--base-dim", "2", "--fiber-dim", "1", "--order", "1",
            "1/2*(u_x^2+u_y^2)"]
    expected = run_cli(argv)
    nonzero, zero = _formal_perturbations()
    lam = lepage.Lagrangian(Context(n=2, m=1), 1, se.y(1, 1) ** 2 * se.rational(1, 2))
    rho = build(lam)
    with monkeypatch.context() as patch:
        perturb(patch, nonzero)
        assert run_cli(argv) == (3, "", f"internal error: {message}\n")
        with pytest.raises(AssertionError, match=re.escape(message)):
            build(lam)
    with monkeypatch.context() as patch:
        perturb(patch, zero)
        assert run_cli(argv) == expected
        assert build(lam) == rho


@pytest.mark.parametrize("flags", [["--order", "1", "u_x*v_y^2"],
                                   ["--order", "2", "--variant", "plain", "u_xx*v_y^2"]])
def test_cli_kb_failed_cross_check_is_internal_error_3(monkeypatch, flags):
    # a terminal without the contact corrections disagrees with the closed form
    monkeypatch.setattr(lepage, "_chain", lambda lam: [lam.form()])
    code, out, err = run_cli(["kb", "--base-dim", "2", "--fiber-dim", "2"] + flags)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: recurrence and closed form disagree; "
                          "smallest differing term: rebuilt ")


def test_cli_kb_runs_the_recurrence_only_to_cross_check(monkeypatch):
    calls = []
    real = lepage._chain
    monkeypatch.setattr(lepage, "_chain", lambda lam: calls.append(lam.order) or real(lam))
    base = ["kb", "--base-dim", "2", "--fiber-dim", "1"]
    expr = "u_xx*u_y^2 + u_x*u_xy"
    for flags in (["--order", "1", "u_x*u_y^2"],
                  ["--order", "2", "--variant", "plain", expr],
                  ["--order", "2", "--variant", "generalized", expr]):
        code, out, err = run_cli(base + flags)
        assert code == 0 and out and err == ""
    assert calls == [1, 2]


def test_kb_and_the_lepage_identities_never_expand_a_chain_member(monkeypatch):
    # the chain is compared formally: neither command builds the expanded
    # chain, and no member of the formal one is expanded
    members, expanded, recurrences = [], [], []
    real_chain, real_expanded = lepage._chain, interior_euler._expanded

    def chain(lam):
        forms = real_chain(lam)
        members.extend(forms)
        return forms

    def spy(rho):
        expanded.append(rho)
        return real_expanded(rho)

    for module in (lepage, verify):
        monkeypatch.setattr(module, "_chain", chain)
    # verify expands nothing itself: every expansion is lepage's or interior_euler's
    assert not hasattr(verify, "_expanded")
    for module in (interior_euler, lepage):
        monkeypatch.setattr(module, "_expanded", spy)
    monkeypatch.setattr(lepage, "rossi_recurrence", recurrences.append)
    dims = ["--base-dim", "2", "--fiber-dim", "2"]
    for argv in (["kb"] + dims + ["--order", "1", "u_x*v_y^2"],
                 ["kb"] + dims + ["--order", "2", "u_xx*v_y^2 + u_x*v_xy"],
                 ["verify", "--identity", "kb-first"] + dims,
                 ["verify", "--identity", "kb-second"] + dims,
                 ["verify", "--identity", "rossi-rho2", "--base-dim", "2", "--fiber-dim", "1"]):
        code, out, err = run_cli(argv)
        assert code == 0 and out and err == "", argv
    assert members and expanded and recurrences == []
    assert not {id(rho) for rho in members} & {id(rho) for rho in expanded}


def test_cli_command_shares_one_chain_rule_memo(monkeypatch):
    keys, memos = [], []
    build = se._chain_rule

    def spy(atom, i, derived):
        keys.append((atom, i))
        memos.append(se._derived)
        return build(atom, i, derived)

    monkeypatch.setattr(se, "_chain_rule", spy)
    # the grammar has no opaque symbols, so the command reads a generic density
    monkeypatch.setattr(cli, "parse_lagrangian",
                        lambda text, ctx, order, fields: lepage.generic_lagrangian(ctx, order))
    # the closed form and its cross-check recurrence build each rule once
    code, out, err = run_cli(["kb", "--base-dim", "2", "--fiber-dim", "1",
                              "--order", "2", "u_xx*u_y^2 + u_x*u_xy"])
    assert code == 0 and out and err == ""
    assert keys and len(keys) == len(set(keys))
    assert memos[0] is not None and all(memo is memos[0] for memo in memos)
    assert se._derived is None
    monkeypatch.setattr(lepage, "poincare_cartan_closed", lambda lam: volume(lam.ctx))
    code, _, _ = run_cli(["pc", "--base-dim", "2", "--fiber-dim", "1",
                          "--order", "1", "1/2*(u_x^2+u_y^2)"])
    assert code == 3
    assert se._derived is None


# -- the cyclic garbage collector ---------------------------------------------------

ACYCLIC_COMMANDS = [
    ["el", "-n", "2", "-m", "1", "-r", "1", "1/2*(u_x^2+u_y^2)"],
    ["pc", "-n", "2", "-m", "1", "-r", "1", "1/2*(u_x^2+u_y^2) + u*u_x*u_y"],
    ["kb", "-n", "2", "-m", "1", "-r", "2", "--variant", "plain", "u_xx*u_y^2 + u_x*u_xy"],
    ["kb", "-n", "2", "-m", "1", "-r", "2", "--variant", "generalized",
     "u_xx*u_y^2 + u_x*u_xy"],
    ["split", "-n", "2", "-m", "1", "-r", "1", "u_1 * w(u,1) /\\ dx2 + u^2 * w(u) /\\ dx1"],
    ["splitlike", "-n", "2", "-m", "1", "-r", "1", "u_1 * w(u,1) /\\ dx2"],
    ["alpha", "-n", "2", "-m", "1", "-r", "2", "u_1 * w(u,11) /\\ dx2 + u_2 * w(u,12) /\\ dx1"],
    ["ieuler", "-n", "2", "-m", "1", "-r", "1", "u_1 * w(u,1) /\\ w(u) /\\ ds"],
    ["residual", "-n", "2", "-m", "1", "-r", "1", "u_1 * w(u,1) /\\ dx2"],
    ["residual", "-n", "2", "-m", "1", "-r", "2",
     "u_1*u_12 * w(u,12) /\\ ds + u^2 * w(u,1) /\\ ds"],
    ["decompose", "-n", "2", "-m", "1", "-r", "1", "u_1 * w(u,1) /\\ dx2 + u*dx1"],
    ["verify", "-n", "2", "-m", "1", "--identity", "all"],
]


def test_the_library_makes_no_cyclic_garbage():
    # reference counting alone frees what a call drops, which is why the
    # outermost memo scope may pause the cyclic collector; argparse's own
    # formatters make cycles, once, while the kept tree is built
    cli.build_parser()
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in ACYCLIC_COMMANDS:
            code, out, err = run_cli(argv)
            assert code == 0 and out and err == "", argv
        for ctx, order in [(CTX21, 2), (Context(n=3, m=2), 1)]:
            lam = lepage.generic_lagrangian(ctx, order)
            lepage.poincare_cartan(lam)
            lepage.rossi_recurrence(lam)
            lepage.euler_lagrange(lam)
            if order == 1:
                lepage.krupka_betounes_first(lam)
            else:
                lepage.kb_second_order(lam, "plain")
                lepage.kb_second_order(lam, "generalized")
        gc.collect()
        assert not gc.garbage, sorted({getattr(o, "__qualname__", type(o).__qualname__)
                                        for o in gc.garbage})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_the_outermost_scope_pauses_the_collector_on_every_exit(monkeypatch):
    assert gc.isenabled()
    states = []
    real = lepage._step

    def step(lam, prev, q):
        states.append(gc.isenabled())
        return real(lam, prev, q)

    monkeypatch.setattr(lepage, "_step", step)
    lam = lepage.generic_lagrangian(CTX21, 1)
    lepage.rossi_recurrence(lam)
    assert states and not any(states)
    assert gc.isenabled()
    # nested scopes leave it paused; the outermost one turns it back on
    with se._memo_scope():
        lepage.rossi_recurrence(lam)
        assert not gc.isenabled()
    assert gc.isenabled()
    # a caller that turned it off finds it off
    gc.disable()
    try:
        lepage.rossi_recurrence(lam)
        assert not gc.isenabled()
    finally:
        gc.enable()

    def interrupted(lam, prev, q):
        raise KeyboardInterrupt

    monkeypatch.setattr(lepage, "_step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        lepage.rossi_recurrence(lam)
    assert gc.isenabled()
    monkeypatch.setattr(lepage, "_step", real)
    code, _, err = run_cli(["el", "-n", "2", "-m", "1", "-r", "1", "u/0"])
    assert code == 2 and err.startswith("error: ")
    assert gc.isenabled()
    monkeypatch.setattr(lepage, "poincare_cartan_closed", lambda lam: volume(lam.ctx))
    code, _, err = run_cli(["pc", "-n", "2", "-m", "1", "-r", "1", "1/2*(u_x^2+u_y^2)"])
    assert code == 3 and err.startswith("internal error: ")
    assert gc.isenabled()


def test_cli_stdin():
    code, out, _ = run_cli(["pc", "--base-dim", "1", "--fiber-dim", "1",
                            "--order", "1", "-"], stdin_text="1/2*u_x^2")
    assert code == 0
    assert "w(u)" in out


def test_cli_decompose_lists_components():
    code, out, _ = run_cli(["decompose", "--base-dim", "1", "--fiber-dim", "1",
                            "--order", "1", "dy(u) /\\ dy(u,1)"])
    assert code == 0
    assert "p_1:" in out and "p_2:" in out


def test_cli_json_byte_stable_across_runs():
    argv = ["kb", "--base-dim", "2", "--fiber-dim", "2", "--order", "1",
            "--format", "json", "u_x*v_y - u_y*v_x"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["version"] == "jetform-json/1"


def test_cli_latex_output():
    code, out, _ = run_cli(["el", "--base-dim", "2", "--fiber-dim", "1",
                            "--order", "1", "--format", "latex",
                            "1/2*(u_x^2+u_y^2)"])
    assert code == 0
    assert r"\omega^{u}" in out
    assert out.count("{") == out.count("}")


def test_cli_latex_balanced_across_subcommands():
    cases = [
        ["pc", "--base-dim", "2", "--fiber-dim", "1", "--order", "1",
         "--format", "latex", "1/2*(u_x^2+u_y^2)"],
        ["kb", "--base-dim", "2", "--fiber-dim", "2", "--order", "1",
         "--format", "latex", "u_x*v_y - u_y*v_x"],
        ["decompose", "--base-dim", "1", "--fiber-dim", "1", "--order", "1",
         "--format", "latex", "dy(u) /\\ dy(u,1)"],
        ["split", "--base-dim", "2", "--fiber-dim", "1", "--order", "1",
         "--format", "latex", "u_1 * w(u,1) /\\ ds"],
        ["ieuler", "--base-dim", "1", "--fiber-dim", "1", "--order", "1",
         "--format", "latex", "u_1 * w(u,1) /\\ dx1"],
    ]
    for argv in cases:
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out.count("{") == out.count("}")
        assert out.count(r"\left(") == out.count(r"\right)")


def test_cli_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetform.cli", "el", "--base-dim", "1",
         "--fiber-dim", "1", "--order", "1", "1/2*u_1^2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "w(u)" in proc.stdout


def test_cli_residual_codegree_flag():
    code, out, _ = run_cli(["residual", "--base-dim", "1", "--fiber-dim", "1",
                            "--order", "2", "u_11 * w(u,11) /\\ dx1"])
    assert code == 0
    code2, out2, _ = run_cli(["residual", "--base-dim", "2", "--fiber-dim", "1",
                              "--order", "1", "--codegree", "1",
                              "u_1 * w(u,1) /\\ dx2"])
    assert code2 == 0


def test_cli_splitlike_and_alpha():
    code, out, _ = run_cli(["splitlike", "--base-dim", "2", "--fiber-dim", "1",
                            "--order", "1", "u_1 * w(u,1) /\\ dx2"])
    assert code == 0
    assert "volume:" in out and "boundary:" in out
    expr = "u_1 * w(u,11) /\\ dx2 + u_2 * w(u,12) /\\ dx1"
    code, out, _ = run_cli(["alpha", "--base-dim", "2", "--fiber-dim", "1",
                            "--order", "2", expr])
    assert code == 0
    assert "alpha:" in out


def test_cli_split_at_rank2_codegree2():
    # a 1-horizontal form at n = 3 has codegree 2; the canonical splitting
    # covers every rank there, and this boundary part is not zero
    expr = "u_1 * w(u,13) /\\ dx3 + u_2 * w(u,33) /\\ dx1"
    code, out, err = run_cli(["split", "-n", "3", "-m", "1", "-r", "2", expr])
    assert code == 0, err
    volume, boundary = out.splitlines()
    assert volume.startswith("volume: ") and "w(u,13)" in volume
    assert boundary.startswith("boundary: ") and boundary != "boundary: 0"


def test_cli_alpha_at_codegree_zero_prints_zero_parts():
    code, out, err = run_cli(["alpha", "-n", "2", "-m", "1", "-r", "2",
                              "u_1 * w(u,12) /\\ ds + u_2 * w(u,1) /\\ ds"])
    assert code == 0, err
    assert out == "alpha: 0\nDiv(alpha): 0\n"


# -- one parser per process ---------------------------------------------------------

LAPLACE = ["el", "-n", "2", "-m", "1", "1/2*(u_x^2+u_y^2)"]
LAPLACE_EL = (0, "(-u_11 - u_22) * w(u) /\\ ds\n", "")


def test_cli_builds_one_parser_per_process(monkeypatch):
    run_cli(LAPLACE)  # warm-up: the first call may build the tree
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (LAPLACE, ["el"], ["verify", "--identity", "eq32"],
                 ["kb", "-r", "2", "u_xx"]):
        run_cli(argv)
    assert built == []
    assert cli.build_parser() is cli.build_parser()


INTERLEAVED = [
    ["el"],                                               # usage error
    ["--help"],
    ["verify", "--identity", "eq32"],
    ["el", "--format", "json", "-n", "2", "-m", "1", "u_x^2 + u_x*u_y"],
    ["el", "u_x^2 + u_x*u_y"],                            # every default
    ["kb", "--variant", "generalized", "-r", "2", "u_xx*u_y"],
    ["kb", "-r", "2", "u_xx*u_y"],                        # the plain default again
    ["el", "-m", "2", "--fields", "a", "a_1^2"],          # one name for two fields
    ["el", "--format", "latex", "--fields", "p", "p_x^2"],
    ["el", "u_x^2 + u_x*u_y"],
]


def test_cli_requests_do_not_leak_into_each_other():
    def fresh(argv):
        cli.build_parser.cache_clear()
        return run_cli(argv)

    expected = {tuple(argv): fresh(argv) for argv in INTERLEAVED}
    assert [expected[tuple(argv)][0] for argv in INTERLEAVED] == [2, 0, 0, 0, 0, 0, 0, 2, 0, 0]
    for order in (INTERLEAVED, INTERLEAVED[::-1]):
        for argv in order:
            assert run_cli(argv) == expected[tuple(argv)], argv


def test_cli_usage_message_goes_to_the_stderr_of_the_call():
    first, second = run_cli(["el"]), run_cli(["el"])
    for code, out, err in (first, second):
        assert code == 2 and out == ""
        assert err.startswith("usage: jetform el ")
        assert "the following arguments are required: expr" in err
    assert first == second
    code, out, err = run_cli(["--help"])
    assert code == 0 and out.startswith("usage: jetform ") and err == ""


# -- argv fuzzing -------------------------------------------------------------------

COMMANDS = ["decompose", "ieuler", "residual", "split", "splitlike", "alpha",
            "pc", "kb", "el", "verify"]
COMMON_FLAGS = ["--base-dim", "-n", "--fiber-dim", "-m", "--order", "-r", "--format", "--fields"]
COMMAND_FLAGS = {"ieuler": ["--contact"], "residual": ["--contact", "--codegree"],
                 "kb": ["--variant"], "verify": ["-n", "-m", "--seed"]}
FLAGS = COMMON_FLAGS + ["--contact", "--codegree", "--variant", "--identity", "--seed",
                        "--help", "-h", "--"]
NUMBERS = ["-1", "0", "1", "2"]
# a request keeps its dimensions valid, so that it reaches the engine; the
# free draws still give -1 and 0
OWN_VALUES = {"--format": ["text", "latex", "json"], "--variant": ["plain", "generalized"],
              "--identity": [*sorted(verify.CHECKS), "all"], "--fields": ["u", "u,v", "a,a"],
              **dict.fromkeys(["--base-dim", "-n", "--fiber-dim", "-m"], ["1", "2"])}
VALUES = list(dict.fromkeys(NUMBERS + [value for values in OWN_VALUES.values()
                                       for value in values]))
EXPRESSIONS = ["1/0", "u_xx", "w(u) /\\ dx1", "1/2*(u_x^2+u_y^2)", "u_x*v_y - u_y*v_x",
               "u_1 * w(u,1) /\\ ds", "dy(u) /\\ dy(u,1)", "x1*u + dx2", "u_1 +* u_2",
               "q_x", "(u", "u/u_x", "w(v,2) /\\ dx1 /\\ dx2"]


def _request(command):
    """argv shaped like a request: the command, its own flags each with a
    value of its own kind, then the expression (verify: the identity)."""
    if command == "verify":
        flags, head = COMMAND_FLAGS["verify"], ["--identity", OWN_VALUES["--identity"]]
    else:
        flags, head = COMMON_FLAGS + COMMAND_FLAGS.get(command, []), [EXPRESSIONS]
    pair = st.sampled_from(flags).flatmap(lambda flag: st.tuples(
        st.just(flag), st.sampled_from(OWN_VALUES.get(flag, NUMBERS))))
    last = st.tuples(*(st.sampled_from(w) if isinstance(w, list) else st.just(w) for w in head))
    return st.tuples(st.lists(pair, max_size=3), last).map(
        lambda t: [command, *(word for pair in t[0] for word in pair), *t[1]])


# half the draws are any words of the vocabulary, half are shaped like a
# request, so that many get past argparse into the engine
ARGV = (st.lists(st.sampled_from(COMMANDS + FLAGS + VALUES + EXPRESSIONS), max_size=8)
        | st.sampled_from(COMMANDS).flatmap(_request))


@settings(max_examples=500, deadline=None)
@given(argv=ARGV)
def test_cli_main_on_drawn_argv_exits_0_or_2(argv):
    code, _, _ = run_cli(argv)
    assert code in (0, 2), argv
    assert run_cli(LAPLACE) == LAPLACE_EL


# -- expression fuzzing -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(text=EXPRESSION, depth=st.integers(0, 2000))
def test_parser_on_drawn_expressions(text, depth):
    # input errors only; an accepted value prints to text that parses back to
    # it, and deep nesting or an even run of signs leaves it as it is
    try:
        value = parse_form(text, CTX22, FUZZ_ORDER)
    except ValueError:
        return
    assert parse_form(form_text(value), CTX22, FUZZ_ORDER + 1) == value, text
    assert parse_form("(" * depth + text + ")" * depth, CTX22, FUZZ_ORDER) == value
    assert parse_form("-" * (2 * depth) + text, CTX22, FUZZ_ORDER) == value
