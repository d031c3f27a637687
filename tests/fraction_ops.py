"""Counting Fraction arithmetic, for the tests that pin a path to integers."""

import contextlib
from fractions import Fraction

OPS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
       "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__")


@contextlib.contextmanager
def fraction_ops():
    """{dunder: calls} of the Fraction operations made while the block runs;
    ``__new__`` counts the Fractions made."""
    ops = dict.fromkeys(OPS, 0)
    saved = {name: Fraction.__dict__[name] for name in OPS}

    def counted(name, method):
        def op(*args, **kwargs):
            ops[name] += 1
            return method(*args, **kwargs)
        return staticmethod(op) if name == "__new__" else op

    try:
        for name in OPS:
            setattr(Fraction, name, counted(name, getattr(Fraction, name)))
        yield ops
    finally:
        for name, method in saved.items():
            setattr(Fraction, name, method)
