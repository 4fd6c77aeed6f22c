"""Exact two-phase simplex over rationals, in integer arithmetic.

Dense tableau, Bland's rule throughout (lowest eligible index enters,
ratio ties leave by lowest basic index), so every run terminates without
any cycling safeguards beyond the rule itself. There are no tolerances
anywhere.

The tableau holds only integers (integer-preserving pivoting: Edmonds
1967, Bareiss 1968). Each constraint row is scaled once, by the lcm of
its denominators, while its slack and artificial keep the coefficient
1 or -1 (a ``>=`` row's artificial is read off its surplus, see below).
That measures them in units of 1/scale: a positive rescaling of their
columns, which changes no sign of a reduced cost and no order of a
ratio test. Phase one weighs each artificial by 1/scale, so its
objective is still the sum of the artificials; the objective is scaled
once by the lcm of its denominators. An ``int`` is a rational of
denominator 1, so a row given with ``int`` terms and right-hand side,
as every row of ``build_system`` is, has scale 1 and no ``Fraction`` is
built for it.

Each row, and the cost row, has its own positive denominator: the
rational row is ``row / den``. Bareiss's scheme keeps one common
denominator ``d``, the last pivot element (1 before the first pivot),
and holds every row as an integer multiple of ``1/d``. Up to sign ``d``
is the determinant of the current basis matrix B of the scaled rows,
each such row is a row of adj(B) times the integer rows (Cramer's rule),
hence integral, and one pivot is Sylvester's identity. Here a row
stays as it was when it was last rewritten, at the ``d`` of that time,
so its common-scheme form ``row * d // den`` is exact. A pivot at
``(r, c)`` brings the pivot row ``b`` to ``d``, which makes ``b[c]`` the
pivot element ``p``. A row whose entry ``f`` in column ``c`` is zero is
not touched. Any other row ``a`` becomes ``(p*a - f*b) // den`` over
denominator ``p``: that is the common scheme's ``(p*A - F*b) // d`` with
``A = a*d/den`` and ``F = f*d/den``, the row the common scheme holds
after the pivot, so the division is exact. Off the support of ``b``
(its nonzero entries) ``b[j] == 0``, so the new entry is ``p*a[j] //
den``, exact by the same argument, and zero where ``a[j]`` is; only the
entries on the support take the full formula. When ``den == p`` the
update is ``a[j] -= f*b[j] // p`` on the support only, each quotient
again exact because the new row is integral. The pivot element is the
entering variable's entry in ``b``, an artificial's read off its twin
(below); the ratio test admits only positive ones, so only a clean-up
pivot after phase one, which enters a real column, can have ``p < 0``.
Negating ``b`` first negates exactly the rows the pivot rewrites and
keeps every denominator positive. Phase two brings every row to ``d``
once, and its reduced costs start from ``d * cost`` minus each basic row
times its variable's cost.

Phase one stores no column for the artificial of a ``>=`` row. That
artificial starts as ``+e_i`` and the row's surplus as ``-e_i``; row
operations and positive row scalings keep the two exact negatives in
every constraint row, and their reduced costs add up to the
artificial's weight, its cost in phase one. So the artificial is read
off its twin, the surplus column. An ``=`` row's artificial has no twin
and keeps a column, stored after the slacks. Every stored column costs
zero in phase one, and each artificial is ``(column, sign, base)``: its
entry in a constraint row ``a`` is ``sign * a[column]``, and its reduced
cost, over the cost row's denominator ``den``, is ``base * den + sign *
c[column]``, with ``base`` its weight and ``sign`` -1 for a twin, 1 for
a stored column. Entering at row ``r`` eliminates ``a[column]`` (in the
cost row with ``sign * base * den`` added) against ``sign * b`` and
leaves ``b`` as the new row ``r``; that is the pivot on the artificial's
own column, so the tableau is the one that stores it. Bland's rule
takes the lowest real column of negative reduced cost and, when there
is none, the first such artificial in label order, the order of the
columns a tableau with every artificial stored would scan. The basis
holds each artificial by its own label, after the real columns, so the
ratio tie-break, the infeasibility test, the clean-up, the dropped rows
and phase two all read it as before. An artificial that has left the
basis can enter again under Bland's rule, so none is dropped early.

Bland's entering test reads only the signs of the cost row, and the
ratio test compares ``rhs / coeff`` within each row; a positive scale of
one row changes neither. So the pivots are the ones the rational
tableau takes, and Fractions are built only for the returned point,
each coordinate ``row[-1] / den``, whose value is computed from the
caller's unscaled objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import scale_to_integers

ZERO = Fraction(0)

Constraint = tuple[Sequence[tuple[int, int | Fraction]], str, int | Fraction]
# an artificial of phase one as (stored column, sign, base); see _pivot
_Artificial = tuple[int, int, int]


@dataclass(frozen=True)
class LpResult:
    status: str
    point: tuple[Fraction, ...] | None
    value: Fraction | None


def _pivot(
    tableau: list[list[int]],
    dens: list[int],
    row: int,
    enter: int,
    d: int,
    artificials: dict[int, _Artificial],
) -> int:
    """Pivot variable ``enter`` in at ``row``; the new common denominator, positive.

    Row ``i`` stands for ``tableau[i] / dens[i]``, and ``d`` is the
    common denominator of the last pivot. ``enter`` is a stored column,
    or a label of ``artificials``, whose ``(column, sign, base)`` reads
    the artificial's entry off a stored column: ``sign * a[column]`` in
    each constraint row ``a``, and ``base * den + sign * c[column]`` in
    the cost row ``c`` (last, over ``den``). The pivot row is stored as
    it reads, over ``p``, so an entering artificial is basic at ``+1``.
    Rows where the entering variable's entry is zero are left as they
    are, list and denominator.
    """
    col, sign, base = artificials.get(enter, (enter, 1, 0))
    pivot_row = tableau[row]
    if dens[row] != d:
        pivot_row = [x * d // dens[row] for x in pivot_row]
    p = sign * pivot_row[col]
    if p < 0:
        pivot_row = [-x for x in pivot_row]
        p = -p
    # A row meets the entering variable as sign * a[col], the cost row as
    # base * den + sign * c[col]; eliminating that against the pivot row
    # is eliminating a[col], plus sign * base * den in the cost row,
    # against sign * pivot_row.
    elim = pivot_row if sign > 0 else [-x for x in pivot_row]
    support = [(j, b) for j, b in enumerate(elim) if b]
    last = len(tableau) - 1
    for r, other in enumerate(tableau):
        f = other[col]
        if base and r == last:
            f += sign * base * dens[r]
        if not f or r == row:
            continue
        den = dens[r]
        if den == p:
            for j, b in support:
                other[j] -= f * b // p
        else:
            # off the support b[j] == 0, so the entry is p*a // den
            new = [p * a // den if a else 0 for a in other]
            for j, b in support:
                new[j] = (p * other[j] - f * b) // den
            tableau[r] = new
            dens[r] = p
    tableau[row] = pivot_row
    dens[row] = p
    return p


def _iterate(
    tableau: list[list[int]],
    dens: list[int],
    basis: list[int],
    usable: int,
    d: int,
    artificials: dict[int, _Artificial],
) -> tuple[str, int]:
    """Run simplex steps until optimal or unbounded; the status and new ``d``.

    The last row of ``tableau`` is the cost row: reduced costs over the
    first ``usable`` columns, times a positive constant; the sense is
    minimization. The artificials of phase one, labelled from ``usable``
    on, are read off stored columns as ``_pivot`` reads them. Bland's
    rule takes the lowest of the ``usable`` columns with a negative
    reduced cost, else the lowest-labelled such artificial. Every
    denominator is positive, so every sign read here is the rational one.
    """
    m = len(basis)
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(usable) if cost[j] < 0), None)
        if enter is None:
            den = dens[-1]
            enter = next(
                (k for k, (j, sign, base) in artificials.items() if base * den + sign * cost[j] < 0),
                None,
            )
            if enter is None:
                return "optimal", d
        col, sign, _ = artificials.get(enter, (enter, 1, 0))
        best_row = -1
        best_rhs = best_coeff = 0
        for i in range(m):
            row = tableau[i]
            coeff = row[col] if sign > 0 else -row[col]
            if coeff > 0:
                if best_row >= 0:
                    # rhs/coeff against best_rhs/best_coeff, both coeffs positive
                    here, there = row[-1] * best_coeff, best_rhs * coeff
                    if here > there or (here == there and basis[i] > basis[best_row]):
                        continue
                best_row, best_rhs, best_coeff = i, row[-1], coeff
        if best_row < 0:
            return "unbounded", d
        d = _pivot(tableau, dens, best_row, enter, d, artificials)
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
    Coefficients and right-hand sides may be ``int`` or ``Fraction``,
    mixed freely within a row; a ``float`` raises ``AttributeError``.
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
        dense = [0] * num_vars
        for col, coeff in terms:
            if not 0 <= col < num_vars:
                raise ValueError(f"column {col} out of range")
            dense[col] += coeff
        dense.append(rhs)
        if dense[-1] < 0:
            dense = [-x for x in dense]
            relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
        row, scale = scale_to_integers(dense)
        rows.append(row)
        scales.append(scale)
        relations.append(relation)

    m = len(rows)
    slack_count = sum(1 for rel in relations if rel in ("<=", ">="))
    art_start = num_vars + slack_count
    # Phase one minimizes the sum of the artificials. Row i's artificial
    # is counted in units of 1/scales[i], so it costs lcm/scales[i]; only
    # an = row's artificial is stored, a >= row's is its surplus negated.
    lcm = math.lcm(*[scales[i] for i in range(m) if relations[i] != "<="])
    width = art_start + relations.count("=")

    tableau: list[list[int]] = []
    basis: list[int] = []
    artificials: dict[int, _Artificial] = {}
    next_slack = num_vars
    next_stored = art_start
    for i in range(m):
        row = rows[i][:-1] + [0] * (width - num_vars) + [rows[i][-1]]
        if relations[i] == "<=":
            row[next_slack] = 1
            basis.append(next_slack)
            next_slack += 1
        else:
            if relations[i] == ">=":
                row[next_slack] = -1
                col, sign = next_slack, -1
                next_slack += 1
            else:
                row[next_stored] = 1
                col, sign = next_stored, 1
                next_stored += 1
            label = art_start + len(artificials)
            artificials[label] = (col, sign, lcm // scales[i])
            basis.append(label)
        tableau.append(row)

    # Row i stands for tableau[i] / dens[i]; the cost row is appended
    # last while a phase runs, with its own entry in dens and a last
    # (objective value) entry like every row, so it has the full width.
    dens = [1] * m
    d = 1
    if artificials:
        # Every stored column costs zero and an artificial's weight is
        # its base, so the cost row starts as minus each artificial's row
        # times its weight.
        phase1 = [0] * (width + 1)
        for i in range(m):
            if basis[i] >= art_start:
                weight = artificials[basis[i]][2]
                phase1 = [a - weight * b for a, b in zip(phase1, tableau[i])]
        tableau.append(phase1)
        dens.append(1)
        status, d = _iterate(tableau, dens, basis, art_start, d, artificials)
        if status != "optimal":
            raise AssertionError("phase one cannot be unbounded")
        tableau.pop()
        dens.pop()
        if any(tableau[i][-1] != 0 for i in range(m) if basis[i] >= art_start):
            return LpResult("infeasible", None, None)
        # Pivot leftover artificials out on any real column (the element
        # may be negative; _pivot keeps the denominators positive); a row
        # with no real coefficients left is a redundant constraint and
        # gets dropped.
        drop: list[int] = []
        for i in range(m):
            if basis[i] < art_start:
                continue
            col = next((j for j in range(art_start) if tableau[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                d = _pivot(tableau, dens, i, col, d, {})
                basis[i] = col
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
            del dens[i]

    # Phase two starts with every row at the common denominator d.
    tableau = [
        [x * d // den for x in row[:art_start] + row[-1:]] for row, den in zip(tableau, dens)
    ]
    full_cost = cost_vec + [0] * slack_count
    reduced = [d * c for c in full_cost] + [0]
    for i, row in enumerate(tableau):
        weight = full_cost[basis[i]]
        if weight:
            reduced = [a - weight * b for a, b in zip(reduced, row)]
    tableau.append(reduced)
    dens = [d] * len(tableau)
    status, d = _iterate(tableau, dens, basis, art_start, d, {})
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    point = [ZERO] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = Fraction(tableau[i][-1], dens[i])
    value = sum((goal[j] * point[j] for j in range(num_vars)), ZERO)
    return LpResult("optimal", tuple(point), value)
