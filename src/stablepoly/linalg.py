"""Exact linear algebra over rationals, carried out on integers.

A rational vector is scaled once to integers by the lcm of its
denominators (``scale_to_integers``); the simplex scales its objective
with it. The basis pick (``greedy_independent``) takes rows that are
integer already, the sparse ``(column, entry)`` terms of an
``IntegerRow`` as ``polytope._integer_row`` writes them, and eliminates
on those terms without fractions (Edmonds 1967).
Linear independence does not depend on a nonzero scale of each row, so
the indices picked are the rational ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

# a row ``sum(a * x[c] for c, a in terms) <= rhs`` as ``(terms, rhs)``,
# with ``int`` coefficients and right-hand side
IntegerRow = tuple[Sequence[tuple[int, int]], int]


def scale_to_integers(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, and that lcm.

    An ``int`` is a rational of denominator 1, so ``int`` and ``Fraction``
    entries mix freely; any other type (a ``float``) has no
    ``denominator`` and raises ``AttributeError``.
    """
    # a list, not a generator: unpacking a generator builds a resized
    # tuple, and those pile up on the interpreter's tuple free lists
    scale = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (scale // x.denominator) for x in values], scale


def greedy_independent(
    rows: Sequence[Iterable[tuple[int, int]]], need: int
) -> list[int] | None:
    """First indices, in order, of ``need`` linearly independent rows.

    Each row is a sparse integer vector given by its ``(column, entry)``
    terms, the form of ``polytope._integer_row``; a column that is left
    out, or listed with entry 0, is zero there. None when the family has
    smaller rank than requested.
    """
    if need == 0:
        return []
    # echelon rows as (pivot column, pivot entry, nonzero entries); each
    # is zero at the pivot column of every row before it
    basis: list[tuple[int, int, dict[int, int]]] = []
    chosen: list[int] = []
    for idx, terms in enumerate(rows):
        # an explicit zero term must not become a pivot
        vec = {c: a for c, a in terms if a}
        for col, head, pivot_vec in basis:
            factor = vec.get(col)
            if factor:
                g = math.gcd(head, factor)
                scale, factor = head // g, factor // g
                if scale != 1:
                    vec = {c: scale * a for c, a in vec.items()}
                for c, b in pivot_vec.items():
                    x = vec.get(c, 0) - factor * b
                    if x:
                        vec[c] = x
                    else:
                        del vec[c]
        if not vec:
            continue
        # dividing out the content keeps entries from growing with the basis
        content = math.gcd(*vec.values())
        if content != 1:
            vec = {c: a // content for c, a in vec.items()}
        col = next(iter(vec))
        basis.append((col, vec[col], vec))
        chosen.append(idx)
        if len(chosen) == need:
            return chosen
    return None
