"""Exact linear algebra over rationals for vertex certificates."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _reduce(vector: list[Fraction], basis: list[tuple[int, list[Fraction]]]) -> list[Fraction]:
    for pivot_col, pivot_vec in basis:
        factor = vector[pivot_col]
        if factor:
            scale = factor / pivot_vec[pivot_col]
            vector = [a - scale * b for a, b in zip(vector, pivot_vec)]
    return vector


def greedy_independent(vectors: Sequence[Sequence[Fraction]], need: int) -> list[int] | None:
    """First indices, in order, of ``need`` linearly independent vectors.

    None when the family has smaller rank than requested.
    """
    if need == 0:
        return []
    basis: list[tuple[int, list[Fraction]]] = []
    chosen: list[int] = []
    for idx, raw in enumerate(vectors):
        vec = _reduce(list(raw), basis)
        pivot = next((k for k, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            continue
        basis.append((pivot, vec))
        chosen.append(idx)
        if len(chosen) == need:
            return chosen
    return None
