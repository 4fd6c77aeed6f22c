"""Exact linear algebra over rationals, carried out on integers.

A rational vector is scaled once to integers by the lcm of its
denominators (``scale_to_integers``); the simplex, vertex enumeration
and the basis pick below all start from it. Elimination then runs on
integers: linear independence does not depend on a positive scale, so
the indices picked are the rational ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


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


def _reduce(vector: list[int], basis: list[tuple[int, list[int]]]) -> list[int]:
    for pivot_col, pivot_vec in basis:
        factor = vector[pivot_col]
        if factor:
            head = pivot_vec[pivot_col]
            vector = [head * a - factor * b for a, b in zip(vector, pivot_vec)]
    return vector


def greedy_independent(vectors: Sequence[Sequence[Fraction]], need: int) -> list[int] | None:
    """First indices, in order, of ``need`` linearly independent vectors.

    None when the family has smaller rank than requested.
    """
    if need == 0:
        return []
    basis: list[tuple[int, list[int]]] = []
    chosen: list[int] = []
    for idx, raw in enumerate(vectors):
        vec = _reduce(scale_to_integers(raw)[0], basis)
        pivot = next((k for k, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            continue
        # dividing out the content keeps entries from growing with the basis
        content = math.gcd(*vec)
        basis.append((pivot, [x // content for x in vec]))
        chosen.append(idx)
        if len(chosen) == need:
            return chosen
    return None
