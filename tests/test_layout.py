"""Layout guards over the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jetform"


def _reads(node, name: str) -> bool:
    """Whether a name or attribute under node reads ``name``."""
    return any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name
               for n in ast.walk(node))


def test_every_private_definition_is_used_in_the_library():
    # a private def or class that nothing else in src reads is dead code, or
    # library code kept only for the tests
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for d in tree.body:
            if not (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    and d.name.startswith("_") and not d.name.startswith("__")):
                continue
            if not any(_reads(node, d.name) for t in trees.values()
                       for node in t.body if node is not d):
                unused.append(f"{module}:{d.name}")
    assert unused == []


def test_the_parser_has_no_recursion():
    # nesting costs no Python frames: no method of _Parser reaches itself
    # through calls on self, and nothing catches a RecursionError
    tree = ast.parse((SRC / "parser.py").read_text())
    assert not _reads(tree, "RecursionError")
    [parser] = [d for d in tree.body if isinstance(d, ast.ClassDef) and d.name == "_Parser"]
    calls = {f.name: {n.func.attr for n in ast.walk(f)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and isinstance(n.func.value, ast.Name) and n.func.value.id == "self"}
             for f in parser.body if isinstance(f, ast.FunctionDef)}
    for start in calls:
        reached, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            if name in calls and name not in reached:
                reached.add(name)
                todo += calls[name]
        assert start not in reached, start


def _binds_mismatch(test) -> bool:
    """Whether an ``if`` test binds the result of a _mismatch(...) call."""
    return any(isinstance(n, ast.NamedExpr) and isinstance(n.value, ast.Call)
               and isinstance(n.value.func, ast.Name) and n.value.func.id == "_mismatch"
               for n in ast.walk(test))


def test_every_failed_self_check_is_decided_by_mismatch():
    # one decision rule: an AssertionError, or a class derived from it, is
    # raised only in an ``if`` whose test binds the result of _mismatch(...)
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = [d for t in trees.values() for d in ast.walk(t) if isinstance(d, ast.ClassDef)]
    checks = {"AssertionError"}
    while derived := {d.name for d in classes if d.name not in checks and any(
            isinstance(b, ast.Name) and b.id in checks for b in d.bases)}:
        checks |= derived
    undecided = []
    for module, tree in trees.items():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and node.exc is not None):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in checks):
                continue
            guard = parents.get(node)
            while guard is not None and not isinstance(guard, ast.If):
                guard = parents.get(guard)
            if guard is None or not _binds_mismatch(guard.test):
                undecided.append(f"{module}:{node.lineno}")
    assert undecided == []


def test_only_symexpr_touches_the_garbage_collector():
    # one collector policy: the outermost symexpr._memo_scope pauses it
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "gc" in names:
                importers.append(path.name)
    assert importers == ["symexpr.py"]


def _is_subtraction(node) -> bool:
    if isinstance(node, ast.NamedExpr):
        node = node.value
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)


def _zero_tested_differences(func) -> set:
    """The lines in func that call .is_zero() on a subtraction, written
    inline or through a name assigned from one."""
    names = {t.id for n in ast.walk(func) if isinstance(n, ast.Assign) and _is_subtraction(n.value)
             for t in n.targets if isinstance(t, ast.Name)}
    names |= {n.target.id for n in ast.walk(func)
              if isinstance(n, ast.NamedExpr) and _is_subtraction(n.value)}
    return {n.lineno for n in ast.walk(func)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "is_zero"
            and (_is_subtraction(n.func.value)
                 or isinstance(n.func.value, ast.Name) and n.func.value.id in names)}


def test_only_mismatch_decides_an_equality_of_two_forms():
    # one comparison: outside _mismatch no function decides whether two
    # things are equal by whether their difference is zero
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and func.name != "_mismatch":
                found |= {f"{path.name}:{line}" for line in _zero_tested_differences(func)}
    assert sorted(found) == []


def _fresh_terms(node) -> bool:
    """Whether node is the .terms of a product or of a total derivative
    made on the spot: ``(a * b).terms`` or ``total_derivative(...).terms``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "terms"):
        return False
    made = node.value
    if isinstance(made, ast.BinOp):
        return isinstance(made.op, ast.Mult)
    return isinstance(made, ast.Call) and any(
        _reads(made.func, name) for name in ("total_derivative", "total_derivative_multi"))


def test_no_fresh_product_or_derivative_goes_through_a_merge():
    # one product loop and one Leibniz loop: a product or derivative that only
    # goes into a running sum is written there by _mul_into or _derive_into,
    # not built whole and merged in a second pass
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and any(map(_fresh_terms, node.args)) \
                    and (_reads(node.func, "_add_terms") or _reads(node.func, "_merge")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
