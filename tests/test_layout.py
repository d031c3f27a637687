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
