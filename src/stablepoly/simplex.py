"""Exact two-phase simplex over rationals, in integer arithmetic.

Dense tableau, Bland's rule throughout (lowest eligible index enters,
ratio ties leave by lowest basic index), so every run terminates without
any cycling safeguards beyond the rule itself. There are no tolerances
anywhere.

The tableau holds only integers (integer-preserving pivoting: Edmonds
1967, Bareiss 1968). Each constraint row is scaled once, by the lcm of
its denominators, while its slack and artificial keep the coefficient
1 or -1. That measures them in units of 1/scale: a positive rescaling
of their columns, which changes no sign of a reduced cost and no order
of a ratio test. Phase one weighs each artificial by 1/scale, so its
objective is still the sum of the artificials; the objective is scaled
once by the lcm of its denominators.

The rational tableau is the integer one divided by ``d``, one positive
common denominator: the last pivot element, 1 before the first pivot.
A pivot at ``(r, c)`` with element ``p`` replaces every other row
``a``, and the cost row, by ``(p*a - f*b) // d``, where ``b`` is the
pivot row and ``f`` is ``a[c]``; then ``d = p``. The division is exact:
up to sign, ``d`` is the determinant of the current basis matrix B of
the scaled rows, each row is then a row of adj(B) times the integer
rows (Cramer's rule), hence integral, and the update is Sylvester's
identity. Only a clean-up pivot after phase one can have ``p < 0``;
the whole tableau and ``d`` are then negated, which keeps every
quotient. Phase two's reduced costs start from ``d * cost`` minus each
basic row times its variable's cost.

Every choice reads only signs and cross-multiplied ratios, so the
pivots are the ones the rational tableau takes, and Fractions are
built only for the returned point, whose value is computed from the
caller's unscaled objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import scale_to_integers

ZERO = Fraction(0)

Constraint = tuple[Sequence[tuple[int, Fraction]], str, Fraction]


@dataclass(frozen=True)
class LpResult:
    status: str
    point: tuple[Fraction, ...] | None
    value: Fraction | None


def _pivot(
    tableau: list[list[int]], cost: list[int] | None, row: int, col: int, d: int
) -> int:
    """Pivot at ``(row, col)`` over denominator ``d``; the new denominator."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    for r, other in enumerate(tableau):
        if r == row:
            continue
        f = other[col]
        if f:
            tableau[r] = [(p * a - f * b) // d for a, b in zip(other, pivot_row)]
        elif p != d:
            tableau[r] = [p * a // d for a in other]
    if cost is not None:
        f = cost[col]
        if f:
            cost[:] = [(p * a - f * b) // d for a, b in zip(cost, pivot_row)]
        elif p != d:
            cost[:] = [p * a // d for a in cost]
    return p


def _iterate(
    tableau: list[list[int]],
    basis: list[int],
    cost: list[int],
    usable: int,
    d: int,
) -> tuple[str, int]:
    """Run simplex steps until optimal or unbounded; the status and new ``d``.

    ``cost`` holds reduced costs over the first ``usable`` columns, times
    ``d`` and a positive constant; the sense is minimization. ``d`` must
    be positive, so every sign read here is the rational one.
    """
    while True:
        enter = next((j for j in range(usable) if cost[j] < 0), None)
        if enter is None:
            return "optimal", d
        best_row = -1
        best_rhs = best_coeff = 0
        for i, row in enumerate(tableau):
            coeff = row[enter]
            if coeff > 0:
                if best_row >= 0:
                    # rhs/coeff against best_rhs/best_coeff, both coeffs positive
                    here, there = row[-1] * best_coeff, best_rhs * coeff
                    if here > there or (here == there and basis[i] > basis[best_row]):
                        continue
                best_row, best_rhs, best_coeff = i, row[-1], coeff
        if best_row < 0:
            return "unbounded", d
        d = _pivot(tableau, cost, best_row, enter, d)
        basis[best_row] = enter


def solve_lp(
    num_vars: int,
    constraints: Sequence[Constraint],
    objective: Sequence[Fraction],
    sense: str = "max",
) -> LpResult:
    """Optimize a linear objective over the given constraints.

    Constraints are (sparse terms, relation, rhs) with relation one of
    "<=", ">=", "="; every variable is additionally held nonnegative.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    if len(objective) != num_vars:
        raise ValueError("objective length does not match variable count")
    goal = [Fraction(c) for c in objective]
    cost_vec, _ = scale_to_integers([-c for c in goal] if sense == "max" else goal)

    rows: list[list[int]] = []
    scales: list[int] = []
    relations: list[str] = []
    for terms, relation, rhs in constraints:
        if relation not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {relation!r}")
        dense = [ZERO] * num_vars
        for col, coeff in terms:
            if not 0 <= col < num_vars:
                raise ValueError(f"column {col} out of range")
            dense[col] += Fraction(coeff)
        rhs = Fraction(rhs)
        if rhs < 0:
            dense = [-x for x in dense]
            rhs = -rhs
            relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
        row, scale = scale_to_integers(dense + [rhs])
        rows.append(row)
        scales.append(scale)
        relations.append(relation)

    m = len(rows)
    slack_count = sum(1 for rel in relations if rel in ("<=", ">="))
    art_start = num_vars + slack_count
    art_count = sum(1 for rel in relations if rel in (">=", "="))
    width = art_start + art_count

    tableau: list[list[int]] = []
    basis: list[int] = []
    next_slack = num_vars
    next_art = art_start
    for i in range(m):
        row = rows[i][:-1] + [0] * (width - num_vars) + [rows[i][-1]]
        if relations[i] == "<=":
            row[next_slack] = 1
            basis.append(next_slack)
            next_slack += 1
        elif relations[i] == ">=":
            row[next_slack] = -1
            next_slack += 1
            row[next_art] = 1
            basis.append(next_art)
            next_art += 1
        else:
            row[next_art] = 1
            basis.append(next_art)
            next_art += 1
        tableau.append(row)

    d = 1
    if art_count:
        # Phase one minimizes the sum of the artificials. Row i's artificial
        # is counted in units of 1/scales[i], so it costs lcm/scales[i].
        lcm = math.lcm(*[scales[i] for i in range(m) if basis[i] >= art_start])
        phase1 = [0] * width
        for i in range(m):
            if basis[i] >= art_start:
                weight = lcm // scales[i]
                phase1[basis[i]] = weight
                phase1 = [a - weight * b for a, b in zip(phase1, tableau[i][:-1])]
        status, d = _iterate(tableau, basis, phase1, width, d)
        if status != "optimal":
            raise AssertionError("phase one cannot be unbounded")
        if any(tableau[i][-1] != 0 for i in range(m) if basis[i] >= art_start):
            return LpResult("infeasible", None, None)
        # Pivot leftover artificials out on any real column; a row with no
        # real coefficients left is a redundant constraint and gets dropped.
        # Such a pivot element may be negative: negating the whole tableau
        # with d keeps every quotient and makes d positive again.
        drop: list[int] = []
        for i in range(m):
            if basis[i] < art_start:
                continue
            col = next((j for j in range(art_start) if tableau[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                d = _pivot(tableau, None, i, col, d)
                basis[i] = col
                if d < 0:
                    d = -d
                    tableau = [[-x for x in row] for row in tableau]
        for i in reversed(drop):
            del tableau[i]
            del basis[i]

    tableau = [row[:art_start] + [row[-1]] for row in tableau]
    full_cost = cost_vec + [0] * slack_count
    reduced = [d * c for c in full_cost]
    for i, row in enumerate(tableau):
        weight = full_cost[basis[i]]
        if weight:
            reduced = [a - weight * b for a, b in zip(reduced, row[:-1])]
    status, d = _iterate(tableau, basis, reduced, art_start, d)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    point = [ZERO] * num_vars
    for i, row in enumerate(tableau):
        if basis[i] < num_vars:
            point[basis[i]] = Fraction(row[-1], d)
    value = sum((goal[j] * point[j] for j in range(num_vars)), ZERO)
    return LpResult("optimal", tuple(point), value)
