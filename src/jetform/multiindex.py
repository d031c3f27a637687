"""Multi-index combinatorics and the one permutation-sign kernel.

Sums written over a multi-index of length k are sums over ordered k-tuples
of base indices.  Internally symmetric data is keyed by the sorted tuple;
``tuple_multiplicity`` converts between the two conventions.

Every permutation sign in the library that sorts a sequence comes from
``sort_with_sign``: a covector sequence put in bit order (``forms._mask``),
a decoded wedge put in printed order (``printers``), the sign of
``forms.ds_block``, and the lookup of a chi form stored per strictly
increasing block (``verify._gathered_chi``).  A single move is signed by
the parity of its distance, with no sort: an index moved into or out of a
block by ``varmorph``, and a covector joining a wedge stored as a bitmask
(``forms._insert``), where the distance is the count of the wedge's bits
below the covector's.  A lookup signed in its block stands for every
ordering of the block, so an antisymmetrization over a block plus one
index takes s+1 terms, not (s+1)! orderings.
"""

from __future__ import annotations

import math


def tuple_multiplicity(J) -> int:
    """Number of ordered tuples that sort to J."""
    count = math.factorial(len(J))
    for i in set(J):
        count //= math.factorial(tuple(J).count(i))
    return count


def sort_with_sign(items, key=None):
    """Sort ``items`` by ``key``, tracking the permutation sign.

    Returns (sorted tuple, sign); sign is 0 when two keys are equal.  Keys
    are computed once per item and the sort is stable.
    """
    items = tuple(items)
    if len(items) < 2:
        return items, 1
    keys = items if key is None else [key(x) for x in items]
    order = list(range(len(items)))
    sign = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and keys[order[j - 1]] > keys[order[j]]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(order, order[1:]):
        if keys[a] == keys[b]:
            sign = 0
            break
    return tuple(items[t] for t in order), sign

