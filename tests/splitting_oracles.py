"""Hand-written splittings that only the tests use.

The closed coefficient formulas of the canonical splitting for rank 1
(every codegree s >= 1) and for rank 2, codegree 1, written out term by
term with their literal weights, and grid walks of the split-like
decomposition and of reducedness that look up ``antisym_value`` at every
(block, sigma, J).  ``antisym_value`` walks all (s+1)! signed orderings of
the block plus the moved indices.  They share nothing with the library's
scatters over stored coefficients beyond the morphism storage, so
comparing the two checks the scatters.  ``is_reduced`` is the reducedness
test through the library's kernel, which ``is_reduced_grid`` checks.
"""

import itertools
import math
from fractions import Fraction

from jetform import symexpr
from jetform.multiindex import sort_with_sign
from jetform.symexpr import Scalar
from jetform.varmorph import SplitResult, VariationalMorphism, _antisymmetrized


def signed_permutations(seq):
    """All len(seq)! orderings of ``seq`` by position, each with its sign."""
    seq = tuple(seq)
    for perm in itertools.permutations(range(len(seq))):
        yield tuple(seq[t] for t in perm), sort_with_sign(perm)[1]


def antisym_value(V: VariationalMorphism, positions_block, sigma: int, J) -> Scalar:
    """A^{[b_1..b_p] J}: normalized antisymmetrization of a mixed block.

    ``positions_block`` holds s block indices followed by extra indices
    drawn from the front of the rank string; the lookup reassembles each
    permutation into (block, J) form.
    """
    p = len(positions_block)
    total = Scalar.zero()
    for arranged, sign in signed_permutations(positions_block):
        val = V.value(arranged[:V.s], sigma, arranged[V.s:] + tuple(J))
        total = total + val * Fraction(sign, math.factorial(p))
    return total


def canonical_rank1(V: VariationalMorphism) -> SplitResult:
    """E: (A^B - d_k A^{[Bk]}) and (A^{Bj} - A^{[Bj]}); T: A^{[Bi]}/(s+1)."""
    ctx, s = V.ctx, V.s
    n = ctx.n
    E = {}
    for block in itertools.combinations(range(1, n + 1), s):
        for sigma in range(1, ctx.m + 1):
            val = V.value(block, sigma, ())
            for k in range(1, n + 1):
                val = val - symexpr.total_derivative(
                    antisym_value(V, block + (k,), sigma, ()), k)
            E[block, sigma, ()] = val
            for j in range(1, n + 1):
                E[block, sigma, (j,)] = \
                    V.value(block, sigma, (j,)) - antisym_value(V, block + (j,), sigma, ())
    T = {}
    w = Fraction(1, s + 1)
    for block in itertools.combinations(range(1, n + 1), s + 1):
        for sigma in range(1, ctx.m + 1):
            T[block, sigma, ()] = antisym_value(V, block, sigma, ()) * w
    return SplitResult(VariationalMorphism.of(ctx, s, E), VariationalMorphism.of(ctx, s + 1, T))


def canonical_rank2_codegree1(V: VariationalMorphism) -> SplitResult:
    ctx = V.ctx
    n, m = ctx.n, ctx.m
    d = symexpr.total_derivative

    def sym2(i, sigma, j1):
        return (V.value((i,), sigma, (j1,)) + V.value((j1,), sigma, (i,))) * Fraction(1, 2)

    def sym2_tail(i, sigma, j1, a):
        return (V.value((i,), sigma, (j1, a)) + V.value((j1,), sigma, (i, a))) * Fraction(1, 2)

    def sym3(i, sigma, j1, j2):
        total = Scalar.zero()
        for p in itertools.permutations((i, j1, j2)):
            total = total + V.value((p[0],), sigma, (p[1], p[2]))
        return total * Fraction(1, 6)

    def anti2(i, a, sigma, tail):
        return (V.value((i,), sigma, (a,) + tail) - V.value((a,), sigma, (i,) + tail)) \
            * Fraction(1, 2)

    E = {}
    for i in range(1, n + 1):
        for sigma in range(1, m + 1):
            # the +2/3 sign on the second-derivative term is pinned by the
            # splitting identity <V|Xi> = <E|Xi> + Div(<T|Xi>) together with
            # the boundary part below; a -2/3 breaks it
            val = V.value((i,), sigma, ())
            for a in range(1, n + 1):
                val = val - d(anti2(i, a, sigma, ()), a)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    val = val + Fraction(2, 3) * d(d(anti2(i, b, sigma, (a,)), a), b)
            E[(i,), sigma, ()] = val
            for j1 in range(1, n + 1):
                val = sym2(i, sigma, j1)
                for a in range(1, n + 1):
                    val = val + Fraction(2, 3) * d(V.value((a,), sigma, (i, j1)), a)
                    val = val - Fraction(2, 3) * d(sym2_tail(i, sigma, j1, a), a)
                E[(i,), sigma, (j1,)] = val
                for j2 in range(1, n + 1):
                    E[(i,), sigma, (j1, j2)] = sym3(i, sigma, j1, j2)

    T = {}
    for block in itertools.combinations(range(1, n + 1), 2):
        i1, i2 = block
        for sigma in range(1, m + 1):
            val = anti2(i1, i2, sigma, ())
            for a in range(1, n + 1):
                val = val - Fraction(2, 3) * d(anti2(i1, i2, sigma, (a,)), a)
            T[block, sigma, ()] = val * Fraction(1, 2)
            for j in range(1, n + 1):
                T[block, sigma, (j,)] = anti2(i1, i2, sigma, (j,)) * Fraction(2, 3)
    return SplitResult(VariationalMorphism.of(ctx, 1, E), VariationalMorphism.of(ctx, 2, T))


def split_like_grid(V: VariationalMorphism) -> SplitResult:
    """The split-like decomposition, one (block, sigma, J) at a time.

    The boundary family is built top-down, h = r-1 .. 0, from
    ``antisym_value`` and the total derivatives of the rank above, which
    the family holds once each rank is done; the volume part subtracts it
    at every block, field and rank string.
    """
    ctx, s, r = V.ctx, V.s, V.rank
    n = ctx.n
    d = symexpr.total_derivative
    coeffs = {}
    that = VariationalMorphism(ctx, s + 1)
    for h in range(r - 1, -1, -1):
        for block in itertools.combinations(range(1, n + 1), s + 1):
            for sigma in range(1, ctx.m + 1):
                for L in itertools.product(range(1, n + 1), repeat=h):
                    val = antisym_value(V, block, sigma, L)
                    for k in range(1, n + 1):
                        val = val - d(that.value(block, sigma, L + (k,)), k)
                    coeffs[block, sigma, L] = val
        that = VariationalMorphism.of(ctx, s + 1, coeffs)
    T = VariationalMorphism.of(ctx, s + 1, {key: v * Fraction(1, s + 1)
                                            for key, v in that.coeffs.items()})

    E = {}
    for block in itertools.combinations(range(1, n + 1), s):
        for sigma in range(1, ctx.m + 1):
            for h in range(r + 1):
                for J in itertools.product(range(1, n + 1), repeat=h):
                    val = V.value(block, sigma, J)
                    for i in range(1, n + 1):
                        val = val - d(that.value(block + (i,), sigma, J), i)
                    if J:
                        val = val - that.value(block + (J[0],), sigma, J[1:])
                    E[block, sigma, J] = val
    return SplitResult(VariationalMorphism.of(ctx, s, E), T)


def is_reduced_grid(V: VariationalMorphism) -> bool:
    """``antisym_value`` over the block plus J[0] vanishes at every (block, sigma, J)."""
    ctx = V.ctx
    n = ctx.n
    for h in range(1, V.rank + 1):
        for block in itertools.combinations(range(1, n + 1), V.s):
            for sigma in range(1, ctx.m + 1):
                for J in itertools.product(range(1, n + 1), repeat=h):
                    if not antisym_value(V, block + (J[0],), sigma, J[1:]).is_zero():
                        return False
    return True


def is_reduced(V: VariationalMorphism) -> bool:
    """Whether each rank of V vanishes under block + first-rank-index
    antisymmetrization."""
    return not any(_antisymmetrized(V.acc, V.s, h) for h in range(1, V.rank + 1))
