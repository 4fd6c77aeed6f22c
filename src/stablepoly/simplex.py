"""Exact two-phase simplex over integer rows, in integer arithmetic.

Dense tableau, Bland's rule throughout (lowest eligible index enters,
ratio ties leave by lowest basic index), so every run terminates without
any cycling safeguards beyond the rule itself. There are no tolerances
anywhere.

The rows are ``polytope._integer_row``'s, ``sum(a * x[c]) <= rhs`` with
``int`` coefficients and right-hand side: the caller decides how a
rational row becomes an integer one, and the solver takes the integers
as they are. The tableau holds only integers (integer-preserving
pivoting: Edmonds 1967, Bareiss 1968), and the objective is scaled once
by the lcm of its denominators.

Each row, and the cost row, has its own positive denominator: the
rational row is ``row / den``. Bareiss's scheme keeps one common
denominator ``d``, the last pivot element (1 before the first pivot),
and holds every row as an integer multiple of ``1/d``. Up to sign ``d``
is the determinant of the current basis matrix B of the integer rows,
each such row is a row of adj(B) times the integer rows (Cramer's rule),
hence integral, and one pivot is Sylvester's identity. So ``d`` times
any rational row is integral whatever the row's history, and a row may
be stored over any ``den`` that makes it integral; its common-scheme
form ``row * d // den`` is exact. A pivot at ``(r, c)`` brings the pivot
row ``b`` to ``d``, which makes ``b[c]`` the pivot element ``p``, the
next ``d``. A row whose entry ``f`` in column ``c`` is zero is not
touched. Any other row ``a`` becomes the rational row ``a/den - f*b /
(den*p)``, which ``p`` makes integral. When ``p`` divides ``den``,
``den`` makes it integral too, so the row stays over ``den`` and only
the entries on the support of ``b`` (its nonzero entries) change, as
``a[j] -= f*b[j] // p``, each quotient exact because the new entry and
``a[j]`` are integers. Otherwise the row becomes ``(p*a - f*b) // den``
over ``p``; off the support ``b[j] == 0``, so the new entry is ``p*a[j]
// den``, and zero where ``a[j]`` is; only the entries on the support
take the full formula. A pivot element 1 divides every ``den``, so
every row it changes is updated in place, as ``a[j] -= f*b[j]``: the
quotient by 1 is skipped and the stored integers are the same. Most
pivots on the rows of ``build_system``, whose entries are 0 and 1, are
of this kind. The pivot element is the entering variable's entry in
``b``, an artificial's read off its surplus (below); the ratio test
admits only positive ones, so only a clean-up pivot after phase one,
which enters a real column, can have ``p < 0``. Negating ``b`` first
negates exactly the rows the pivot rewrites and keeps every
denominator positive. Phase two takes the rows as they stand, and its
reduced costs start from ``d * cost`` minus each basic row, brought to
``d``, times its variable's cost; only the rows of a variable with
nonzero cost are brought there, and only their nonzero entries are
read. Phase one's cost row is summed the same way, over the nonzero
entries of each artificial's row, most of which are zero: a row of
``build_system`` has a few terms among ``num_vars + m`` columns.

Row ``i``'s slack is column ``num_vars + i``, and every column the
tableau stores is a real one. A row with a negative right-hand side is
negated as it is written into the tableau, so it reads ``>=`` with a
nonnegative right-hand side; its slack turns into a surplus, and it
needs an artificial in phase one, for which no column is stored. The
artificial starts as ``+e_i`` and the row's surplus as ``-e_i``; row
operations and positive row scalings keep the two exact negatives in
every constraint row, and their reduced costs add up to 1, the
artificial's cost in phase one. So each artificial is just its surplus
column: its entry in a constraint row ``a`` is ``-a[column]``, and its
reduced cost, over the cost row's denominator ``den``, is ``den -
c[column]``. Entering at row ``r`` eliminates ``a[column]`` (in the cost
row with ``den`` subtracted) against ``-b`` and leaves ``b`` as the new
row ``r``; that is the pivot on the artificial's own column, so the
tableau is the one that stores it. Bland's rule takes the lowest real
column of negative reduced cost and, when there is none, the first
such artificial in label order, the order of the columns a tableau with
every artificial stored would scan. The basis holds each artificial by
its own label, ``num_vars + m`` on in row order, after the real
columns, so the ratio tie-break, the infeasibility test and the
clean-up all read it as before. An artificial that has left the basis
can enter again under Bland's rule, so none is dropped early. A
leftover basic artificial has its surplus, a real column, nonzero in
its row, so the clean-up always finds a real column to pivot on and no
row is ever redundant.

Bland's entering test reads only the signs of the cost row, and the
ratio test compares ``rhs / coeff`` within each row; a positive scale of
one row, such as its denominator, changes neither. So the pivots are
the ones the rational tableau of the integer rows takes, and Fractions
are built only for the returned point, each nonzero coordinate
``row[-1] / den``, whose value is computed from the caller's unscaled
objective over those coordinates alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import IntegerRow, scale_to_integers

ZERO = Fraction(0)


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
    artificials: dict[int, int],
) -> int:
    """Pivot variable ``enter`` in at ``row``; the new common denominator, positive.

    Row ``i`` stands for ``tableau[i] / dens[i]``, and ``d`` is the
    common denominator of the last pivot. ``enter`` is a stored column,
    or a label of ``artificials``, which maps it to its surplus column:
    the artificial's entry is ``-a[column]`` in each constraint row
    ``a``, and ``den - c[column]`` in the cost row ``c`` (last, over
    ``den``). The pivot row is stored as it reads, over ``p``, so an
    entering artificial is basic at ``+1``. Rows where the entering
    variable's entry is zero are left as they are, list and denominator;
    a row whose denominator ``p`` divides keeps its list and denominator
    and changes on the pivot row's support only; any other row is
    rewritten over ``p``. With ``p == 1`` the update in place takes no
    quotient by ``p``; each stored entry is still the general formula's,
    ``a - f*b // p``.
    """
    col = artificials.get(enter, enter)
    artificial = col != enter
    pivot_row = tableau[row]
    if dens[row] != d:
        pivot_row = [x * d // dens[row] for x in pivot_row]
    p = -pivot_row[col] if artificial else pivot_row[col]
    if p < 0:
        pivot_row = [-x for x in pivot_row]
        p = -p
    # A row meets an artificial as -a[col], the cost row as den - c[col];
    # eliminating that against the pivot row is eliminating a[col], less
    # den in the cost row, against -pivot_row.
    elim = [-x for x in pivot_row] if artificial else pivot_row
    support = [(j, b) for j, b in enumerate(elim) if b]
    last = len(tableau) - 1
    for r, other in enumerate(tableau):
        f = other[col]
        if artificial and r == last:
            f -= dens[r]
        if not f or r == row:
            continue
        den = dens[r]
        if p == 1:
            # 1 divides every den, and the quotient by 1 is the number itself
            for j, b in support:
                other[j] -= f * b
        elif den % p == 0:
            # the new row is integral over den as well: see the module docstring
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
    d: int,
    artificials: dict[int, int],
) -> tuple[str, int]:
    """Run simplex steps until optimal or unbounded; the status and new ``d``.

    The last row of ``tableau`` is the cost row: reduced costs over the
    stored columns, times a positive constant; the sense is
    minimization. The artificials of phase one, labelled after the
    stored columns, are read off their surplus columns as ``_pivot``
    reads them. Bland's rule takes the lowest stored column with a
    negative reduced cost, else the lowest-labelled such artificial.
    Every denominator is positive, so every sign read here is the
    rational one.
    """
    m = len(basis)
    width = len(tableau[-1]) - 1
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            den = dens[-1]
            # an artificial's reduced cost is den - cost[j]
            enter = next((k for k, j in artificials.items() if cost[j] > den), None)
            if enter is None:
                return "optimal", d
        col = artificials.get(enter, enter)
        artificial = col != enter
        best_row = -1
        best_rhs = best_coeff = 0
        for i in range(m):
            row = tableau[i]
            coeff = -row[col] if artificial else row[col]
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
    rows: Sequence[IntegerRow],
    objective: Sequence[int | Fraction],
    sense: str = "max",
) -> LpResult:
    """Optimize a linear objective over integer ``<=`` rows.

    Each row is ``(terms, rhs)``, sparse ``(column, coefficient)`` terms
    and a right-hand side, for ``sum(a * x[c] for c, a in terms) <=
    rhs``, as ``polytope._integer_row`` writes it; a column listed twice
    counts the sum of its coefficients. Every variable is additionally
    held nonnegative. Coefficients and right-hand sides are ``int``s;
    anything else raises ``TypeError`` before any pivot. Objective
    entries may be ``int`` or ``Fraction``, mixed freely; a ``float``
    there raises ``AttributeError``.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    if len(objective) != num_vars:
        raise ValueError("objective length does not match variable count")
    cost_vec, _ = scale_to_integers([-c for c in objective] if sense == "max" else objective)

    m = len(rows)
    # row i's slack or surplus is column num_vars + i, so the tableau has
    # num_vars + m columns and the right-hand side; the artificials are
    # labelled from width on, each mapped to its surplus column
    width = num_vars + m
    tableau: list[list[int]] = []
    basis: list[int] = []
    artificials: dict[int, int] = {}
    for i, (terms, rhs) in enumerate(rows):
        row = [0] * (width + 1)
        for col, coeff in terms:
            if not 0 <= col < num_vars:
                raise ValueError(f"column {col} out of range")
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an int")
            row[col] += coeff
        if not isinstance(rhs, int):
            raise TypeError(f"right-hand side {rhs!r} is not an int")
        slack = num_vars + i
        if rhs < 0:
            row = [-x for x in row]
            row[slack] = -1
            label = width + len(artificials)
            artificials[label] = slack
            basis.append(label)
            rhs = -rhs
        else:
            row[slack] = 1
            basis.append(slack)
        row[-1] = rhs
        tableau.append(row)

    # Row i stands for tableau[i] / dens[i]; the cost row is appended
    # last while a phase runs, with its own entry in dens and a last
    # (objective value) entry like every row, so it has the full width.
    dens = [1] * m
    d = 1
    if artificials:
        # Phase one minimizes the sum of the artificials. Every stored
        # column costs zero and each artificial costs 1, so the cost row
        # starts as minus the sum of the artificials' rows.
        phase1 = [0] * (width + 1)
        for i in range(m):
            if basis[i] >= width:
                for j, x in enumerate(tableau[i]):
                    if x:
                        phase1[j] -= x
        tableau.append(phase1)
        dens.append(1)
        status, d = _iterate(tableau, dens, basis, d, artificials)
        if status != "optimal":
            raise AssertionError("phase one cannot be unbounded")
        tableau.pop()
        dens.pop()
        if any(tableau[i][-1] != 0 for i in range(m) if basis[i] >= width):
            return LpResult("infeasible", None, None)
        # Pivot each leftover artificial out on the first real column that
        # is nonzero in its row; its surplus is one. The element may be
        # negative; _pivot keeps the denominators positive.
        for i in range(m):
            if basis[i] >= width:
                col = next(j for j in range(width) if tableau[i][j])
                d = _pivot(tableau, dens, i, col, d, {})
                basis[i] = col

    # Phase two takes the rows as they stand; its cost row is over d, so
    # a basic row with a nonzero cost is brought to d (row * d // den,
    # exact) as it is subtracted.
    full_cost = cost_vec + [0] * m
    reduced = [d * c for c in full_cost] + [0]
    for row, den, b in zip(tableau, dens, basis):
        weight = full_cost[b]
        if weight:
            factor = weight * d
            for j, x in enumerate(row):
                if x:
                    reduced[j] -= factor * x // den
    tableau.append(reduced)
    dens.append(d)
    status, d = _iterate(tableau, dens, basis, d, {})
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    point = [ZERO] * num_vars
    value = ZERO
    for i, b in enumerate(basis):
        if b < num_vars and tableau[i][-1]:
            point[b] = x = Fraction(tableau[i][-1], dens[i])
            value += objective[b] * x
    return LpResult("optimal", tuple(point), value)
