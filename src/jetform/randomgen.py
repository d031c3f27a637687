"""Seeded random generators for scalars, forms, morphisms, and Lagrangians.

Shared by the property-test suite and the CLI verify subcommand; everything
is driven by a caller-owned random.Random so runs are reproducible.
"""

from __future__ import annotations

import functools
import itertools

from . import symexpr
from .forms import Context, Form
from .symexpr import Scalar
from .varmorph import VariationalMorphism


@functools.cache  # pure in (ctx, order), and every draw asks for it
def coordinate_pool(ctx: Context, order: int) -> tuple:
    return (tuple(('x', i) for i in range(1, ctx.n + 1))
            + tuple(('y', sigma, J) for sigma, J in itertools.product(
                range(1, ctx.m + 1), symexpr.jet_keys(ctx.n, order))))


def rand_scalar(rng, ctx: Context, order: int, degree: int = 2, terms: int = 2) -> Scalar:
    coords = coordinate_pool(ctx, order)
    out = Scalar.zero()
    for _ in range(terms):
        mono = symexpr.rational(rng.randint(-3, 3), rng.choice([1, 2]))
        for _ in range(rng.randint(0, degree)):
            a = rng.choice(coords)
            mono = mono * (symexpr.x(a[1]) if a[0] == 'x' else symexpr.y(a[1], *a[2]))
        out = out + mono
    return out


def rand_form(rng, ctx: Context, h: int, k: int, order: int,
              terms: int = 3, degree: int = 2) -> Form:
    """A random h-horizontal k-contact form with polynomial coefficients."""
    omegas = [('w', sigma, J) for sigma, J in itertools.product(
        range(1, ctx.m + 1), symexpr.jet_keys(ctx.n, order))]
    pairs = []
    for _ in range(terms):
        if len(omegas) < k:
            break
        dxs = [('dx', i) for i in sorted(rng.sample(range(1, ctx.n + 1), h))]
        ws = rng.sample(omegas, k)
        pairs.append((dxs + ws, rand_scalar(rng, ctx, order, degree=degree)))
    return Form.from_terms(ctx, pairs)


def _symmetric_morphism(ctx: Context, s: int, r: int, coefficient) -> VariationalMorphism:
    """The morphism with coefficient(block, sigma, h, Js) at every ordering of
    each sorted rank string Js of length h <= r.

    ``coefficient`` is called once per (block, sigma, h, Js), in that nested
    order, so a seeded generator draws the same values on every run.
    """
    coeffs = {}
    for block in itertools.combinations(range(1, ctx.n + 1), s):
        for sigma in range(1, ctx.m + 1):
            for Js in symexpr.jet_keys(ctx.n, r):
                val = coefficient(block, sigma, len(Js), Js)
                if not val.is_zero():
                    for Jord in set(itertools.permutations(Js)):
                        coeffs[(block, sigma, Jord)] = val
    return VariationalMorphism.of(ctx, s, coeffs)


def rand_morphism(rng, ctx: Context, s: int, r: int, order: int = 1,
                  degree: int = 2) -> VariationalMorphism:
    """A random morphism with polynomial coefficients, symmetric rank string."""
    return _symmetric_morphism(
        ctx, s, r,
        lambda block, sigma, h, Js: rand_scalar(rng, ctx, order, degree=degree, terms=1))


def generic_morphism(ctx: Context, s: int, r: int, name: str = "A",
                     order: int = -1) -> VariationalMorphism:
    """A morphism whose coefficients are generic opaque functions.

    ``order`` declares the coefficient dependence; -1 keeps the total
    derivatives formal, 2 matches generic functions of (x, y, y_j, y_jk).
    """
    return _symmetric_morphism(
        ctx, s, r,
        lambda block, sigma, h, Js: symexpr.opaque(name, (s, h) + block + (sigma,) + Js,
                                                   n=ctx.n, m=ctx.m, order=order))


def rand_density(rng, ctx: Context, order: int, degree: int = 3,
                 terms: int = 3) -> Scalar:
    """A random polynomial density that genuinely uses jet coordinates."""
    coords = coordinate_pool(ctx, order)
    jets = [c for c in coords if c[0] == 'y' and c[2]]
    out = Scalar.zero()
    for _ in range(terms):
        mono = symexpr.rational(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        a = rng.choice(jets)
        mono = mono * symexpr.y(a[1], *a[2])
        for _ in range(rng.randint(0, degree - 1)):
            a = rng.choice(coords)
            mono = mono * (symexpr.x(a[1]) if a[0] == 'x' else symexpr.y(a[1], *a[2]))
        out = out + mono
    return out
