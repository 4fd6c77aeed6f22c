import dataclasses
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from stablepoly import polytope, simplex
from stablepoly.instances import Edge, random_instance, random_instances
from stablepoly.lattice import enumerate_stable
from stablepoly.polytope import build_system
from stablepoly.simplex import solve_lp

from corpora import latin
from oracles import _fraction_pivot as oracle_pivot
from oracles import filter_stable, fraction_solve_lp, midpoint_lp

F = Fraction


def _integer(rows):
    """``(terms, relation, rhs)`` rows, entries ``int`` or ``Fraction``, as
    the integer ``<=`` rows solve_lp takes: each scaled by the lcm of its
    denominators and negated when it is a ``>=`` row; an ``=`` row is given
    as its ``<=`` row and its ``>=`` row, where it stood."""
    out = []
    for terms, relation, rhs in rows:
        scale = math.lcm(F(rhs).denominator, *[F(c).denominator for _, c in terms])
        for sign in {"<=": (1,), ">=": (-1,), "=": (1, -1)}[relation]:
            k = sign * scale
            out.append(([(j, int(c * k)) for j, c in terms], int(rhs * k)))
    return out


def test_max_two_vars():
    # max x + y st x + 2y <= 4, 3x + y <= 6: optimum at (8/5, 6/5)
    result = solve_lp(2, [([(0, 1), (1, 2)], 4), ([(0, 3), (1, 1)], 6)], [F(1), F(1)])
    assert result.status == "optimal"
    assert result.point == (F(8, 5), F(6, 5))
    assert result.value == F(14, 5)
    assert all(type(x) is Fraction for x in result.point)
    assert type(result.value) is Fraction


def test_min_with_surplus():
    # min 2x + 3y st x + y >= 4 (-x - y <= -4), x <= 3
    result = solve_lp(2, [([(0, -1), (1, -1)], -4), ([(0, 1)], 3)], [F(2), F(3)], "min")
    assert result.status == "optimal"
    assert result.point == (F(3), F(1))
    assert result.value == F(9)


def test_equality_rows():
    result = solve_lp(
        3,
        _integer(
            [
                ([(0, 1), (1, 1), (2, 1)], "=", 1),
                ([(0, 1), (1, -1)], "=", 0),
            ]
        ),
        [F(0), F(0), F(1)],
    )
    assert result.status == "optimal"
    assert result.point == (F(0), F(0), F(1))
    assert result.value == F(1)


def test_infeasible():
    # x <= 1 and x >= 2 (-x <= -2)
    result = solve_lp(1, [([(0, 1)], 1), ([(0, -1)], -2)], [F(1)])
    assert result.status == "infeasible"
    assert result.point is None


def test_unbounded():
    result = solve_lp(2, [([(0, 1)], 1)], [F(0), F(1)])
    assert result.status == "unbounded"


def test_negative_rhs_normalized():
    # -x <= -2 is x >= 2
    result = solve_lp(1, [([(0, -1)], -2)], [F(1)], "min")
    assert result.status == "optimal"
    assert result.point == (F(2),)


def test_degenerate_cycling_guard():
    """Beale's classic cycling example; Bland's rule must terminate."""
    result = solve_lp(
        4,
        _integer(
            [
                ([(0, F(1, 4)), (1, F(-8)), (2, F(-1)), (3, F(9))], "<=", F(0)),
                ([(0, F(1, 2)), (1, F(-12)), (2, F(-1, 2)), (3, F(3))], "<=", F(0)),
                ([(2, F(1))], "<=", F(1)),
            ]
        ),
        [F(3, 4), F(-20), F(1, 2), F(-6)],
    )
    assert result.status == "optimal"
    assert result.value == F(5, 4)


def test_redundant_equalities_driven_out():
    # the second pair repeats the first; phase 1 must not report
    # infeasible, and every artificial left basic is driven out
    result = solve_lp(
        2,
        _integer(
            [
                ([(0, 1), (1, 1)], "=", 1),
                ([(0, 2), (1, 2)], "=", 2),
            ]
        ),
        [F(1), F(0)],
    )
    assert result.status == "optimal"
    assert result.value == F(1)


def test_zero_objective_feasibility_probe():
    result = solve_lp(2, _integer([([(0, 1), (1, 1)], "=", 1)]), [F(0), F(0)], "min")
    assert result.status == "optimal"
    assert result.value == F(0)


def test_matches_vertex_scan():
    """Random small LPs against maximizing over brute-forced vertices.

    Feasible sets here are boxes cut by extra <= rows, so scanning all
    basic points of the constraint grid covers every vertex.
    """
    rng = random.Random(410)
    for _ in range(25):
        n = rng.randint(1, 3)
        rows = [([(j, 1)], rng.randint(1, 4)) for j in range(n)]
        # 0/1 coefficients keep every vertex of the region integral,
        # so the half-step grid below provably covers all of them
        for _ in range(rng.randint(0, 2)):
            terms = [(j, 1) for j in range(n) if rng.random() < 0.6]
            if terms:
                rows.append((terms, rng.randint(2, 6)))
        goal = [F(rng.randint(-3, 3)) for _ in range(n)]
        result = solve_lp(n, rows, goal)
        assert result.status == "optimal"

        def ok(point):
            return all(sum(c * point[j] for j, c in terms) <= rhs for terms, rhs in rows)

        # grid granularity 1/2 catches every vertex of these integer systems
        grid = [F(k, 2) for k in range(0, 13)]
        best = max(
            sum(g * p for g, p in zip(goal, pt))
            for pt in product(grid, repeat=n)
            if ok(pt)
        )
        assert result.value == best


# -- integer tableau paths ----------------------------------------------


def test_negative_cleanup_pivot():
    # y >= 1/2 and y <= 1/2, both with negative right-hand sides. Phase one
    # brings y in on the second row (a ratio tie, which the slack wins by
    # its lower index) and leaves the first row's artificial basic at zero;
    # driving it out pivots on its surplus entry, -1. Phase two must then
    # read every sign the rational tableau has, or x looks profitable.
    rows = _integer([([(1, F(-2))], "<=", F(-1)), ([(1, F(-2))], ">=", F(-1))])
    log = []
    fraction_solve_lp(2, _relational(rows), [F(-2), F(1)], "max", log)
    assert [(kind, element < 0) for kind, _, _, element in log] == [
        ("step", False),
        ("cleanup", True),
    ]
    result = solve_lp(2, rows, [F(-2), F(1)])
    assert result.status == "optimal"
    assert result.point == (F(0), F(1, 2))
    assert result.value == F(1, 2)


def test_pivot_leaves_rows_with_zero_in_pivot_column():
    # random integer tableaus (every nonzero pivot sequence keeps the
    # fraction-free divisions exact), each pivot checked against the
    # Fraction one; a row with 0 in the pivot column keeps its list object
    # and its denominator, so no pivot rescales a row it does not change.
    # A row over a denominator other than the pivot element, with a
    # nonzero entry where the pivot row has none, meets the off-support
    # rescale p*a // den, which must be exact too. A row over a proper
    # multiple of the pivot element keeps its list object and its
    # denominator too, and changes in place on the pivot row's support;
    # small entries (0, 1, -1, 2, as in the rows of build_system) keep the
    # pivot elements small, so that they often divide an older denominator.
    # Every stored integer and denominator is the general formula's, a
    # pivot element 1 included: a - f*b // p in place, (p*a - f*b) // den
    # over p when rewritten.
    rng = random.Random(1314)
    seen = Counter()
    families = (
        (4, 6, 6, lambda: rng.choice((0, 0, rng.randint(-5, 5)))),
        (5, 7, 8, lambda: rng.choice((0, 0, 1, -1, 2))),
    )
    for height, width, steps, entry in families:
        for _ in range(40):
            tableau = [[entry() for _ in range(width)] for _ in range(height)]
            dens = [1] * len(tableau)
            d = 1
            for _ in range(steps):
                row, col = rng.randrange(height), rng.randrange(width)
                if tableau[row][col] == 0:
                    continue
                rational = [[F(x, den) for x in r] for r, den in zip(tableau, dens)]
                oracle_pivot(rational, [F(0)] * width, row, col)
                kept = {
                    r: (tableau[r], dens[r])
                    for r in range(len(tableau))
                    if r != row and tableau[r][col] == 0
                }
                seen["negative"] += tableau[row][col] * dens[row] < 0
                pivot_row = [x * d // dens[row] for x in tableau[row]]
                if pivot_row[col] < 0:
                    pivot_row = [-x for x in pivot_row]
                p = pivot_row[col]
                expected = []
                for r, (a, den) in enumerate(zip(tableau, dens)):
                    f = a[col]
                    if r == row:
                        expected.append((pivot_row, p))
                    elif f == 0 or den % p == 0:
                        expected.append(([x - f * b // p for x, b in zip(a, pivot_row)], den))
                    else:
                        expected.append(([(p * x - f * b) // den for x, b in zip(a, pivot_row)], p))
                others = [den for r, (a, den) in enumerate(zip(tableau, dens)) if r != row and a[col]]
                seen["pivot element 1"] += p == 1 and bool(others)
                seen["off support"] += sum(
                    1
                    for r, a in enumerate(tableau)
                    if r != row and a[col] and dens[r] % p
                    and any(x and not b for x, b in zip(a, pivot_row))
                )
                in_place = {
                    r: (tableau[r], dens[r])
                    for r in range(len(tableau))
                    if r != row and tableau[r][col] and dens[r] != p and dens[r] % p == 0
                }
                d = simplex._pivot(tableau, dens, row, col, d, {})
                assert d > 0 and all(den > 0 for den in dens)
                assert [[F(x, den) for x in r] for r, den in zip(tableau, dens)] == rational
                assert list(zip(tableau, dens)) == expected
                for r, (kept_row, kept_den) in (kept | in_place).items():
                    assert tableau[r] is kept_row and dens[r] == kept_den
                seen["kept"] += len(kept)
                seen["in place over a multiple of p"] += len(in_place)
    assert seen["kept"] and seen["negative"] and seen["off support"] >= 20
    assert seen["in place over a multiple of p"] >= 20
    assert seen["pivot element 1"] >= 20


def test_pivot_column_zero_in_other_rows():
    # x's column is zero in the y row and the other way round: each pivot
    # leaves the other row as it is, over its own denominator, and the y
    # row must still end at y = 5
    result = solve_lp(2, [([(0, 2)], 3), ([(1, 3)], 15)], [F(1), F(1)])
    assert result.status == "optimal"
    assert result.point == (F(3, 2), F(5))
    assert result.value == F(13, 2)


def test_mixed_denominator_rows():
    # x/2 + y/3 <= 1 and x/5 + y <= 7/10 meet at (23/13, 9/26), which
    # beats the other vertices (2, 0) and (0, 7/10)
    result = solve_lp(
        2,
        _integer(
            [
                ([(0, F(1, 2)), (1, F(1, 3))], "<=", F(1)),
                ([(0, F(1, 5)), (1, F(1))], "<=", F(7, 10)),
            ]
        ),
        [F(1), F(1)],
    )
    assert result.status == "optimal"
    assert result.point == (F(23, 13), F(9, 26))
    assert result.value == F(55, 26)


def test_non_int_rows_are_refused(pivots):
    # solve_lp takes _integer_row's rows: a Fraction, even a whole one, or
    # a float, as a coefficient or as a right-hand side, in the first row
    # or a later one, is refused before any pivot
    good = ([(0, -1), (1, -1)], -1)
    for bad in (
        ([(0, F(1, 2))], 1),
        ([(0, F(2))], 1),
        ([(0, 0.5)], 1),
        ([(0, 1)], F(1)),
        ([(0, 1)], 1.0),
    ):
        for rows in ([bad, good], [good, bad]):
            with pytest.raises(TypeError, match="is not an int"):
                solve_lp(2, rows, [F(1), F(0)])
    assert pivots == []


def test_fractional_objective_value_in_caller_units():
    # the solver works with 6 * (x/3 + y/2); value is in the caller's units
    for sense, point, value in (("max", (F(0), F(1)), F(1, 2)), ("min", (F(1), F(0)), F(1, 3))):
        result = solve_lp(2, _integer([([(0, 1), (1, 1)], "=", 1)]), [F(1, 3), F(1, 2)], sense)
        assert result.status == "optimal"
        assert result.point == point
        assert result.value == value


# -- differential tests against the Fraction tableau ----------------------


def _rational(rng):
    return F(0) if rng.random() < 0.3 else F(rng.randint(-6, 6), rng.randint(1, 6))


def _random_lp(rng):
    """A small LP of rational rows that draw each relation, ``=``
    included (``_integer`` writes them as solve_lp's rows); some rows
    are scaled repeats."""
    n = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 5)):
        terms = [(j, _rational(rng)) for j in range(n) if rng.random() < 0.7]
        relation = rng.choice(("<=", ">=", "="))
        rhs = _rational(rng)
        rows.append((terms, relation, rhs))
        if rng.random() < 0.2:
            k = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            flipped = {"<=": ">=", ">=": "<=", "=": "="}[relation] if k < 0 else relation
            rows.append(([(j, k * c) for j, c in terms], flipped, k * rhs))
    return n, rows, [_rational(rng) for _ in range(n)], rng.choice(("max", "min"))


class _PivotLog(list):
    """Pivots as (row, entering variable, element > 0). ``branches``
    counts, over every solve since the fixture was made, the pivots that
    met each per-row-denominator path, and those that read an artificial
    off its surplus."""

    def __init__(self):
        super().__init__()
        self.branches = Counter()


@pytest.fixture
def pivots(monkeypatch):
    """Every pivot solve_lp takes, as (row, entering variable, element > 0).

    An artificial is logged by its own label, the column the Fraction
    tableau stores it in, not by the surplus column it is read off.
    """
    taken = _PivotLog()
    real = simplex._pivot

    def record(tableau, dens, row, enter, d, artificials):
        assert d > 0
        # every row's denominator, the cost row's (last while a phase runs) too
        assert len(dens) == len(tableau) and all(den > 0 for den in dens)
        # the entering variable, an artificial by its own label, and the
        # sign of its element: an artificial is its surplus column negated
        col = artificials.get(enter, enter)
        element = -tableau[row][col] if col != enter else tableau[row][col]
        taken.append((row, enter, element > 0))
        if dens[row] != d:
            taken.branches["stale pivot row"] += 1
        if col != enter:
            taken.branches["artificial read off its surplus"] += 1
        p = abs(element * d // dens[row])
        others = [dens[r] for r, a in enumerate(tableau) if r != row and a[col]]
        if any(den % p for den in others):
            taken.branches["elimination with p not dividing den"] += 1
        if any(den != p and den % p == 0 for den in others):
            taken.branches["pivot element divides the row's denominator"] += 1
        if p == 1 and others:
            taken.branches["pivot element 1"] += 1
        return real(tableau, dens, row, enter, d, artificials)

    monkeypatch.setattr(simplex, "_pivot", record)
    return taken


def _steps(log):
    return [(r, c, e > 0) for kind, r, c, e in log if kind != "drop"]


def _relational(rows):
    """solve_lp's integer rows as the Fraction tableau takes them."""
    return [(terms, "<=", rhs) for terms, rhs in rows]


def _assert_same(num_vars, rows, objective, sense, pivots):
    """Assert that solve_lp and the Fraction tableau, on the same integer
    rows, agree on the result and on every pivot; return the result and
    the oracle's log."""
    pivots.clear()
    log = []
    got = solve_lp(num_vars, rows, objective, sense)
    want = fraction_solve_lp(num_vars, _relational(rows), objective, sense, log=log)
    args = (num_vars, rows, objective, sense)
    assert (got.status, got.point, got.value) == (want.status, want.point, want.value), args
    assert pivots == _steps(log), args
    return got, log


def _assert_same_optimum(num_vars, constraints, objective, sense, got):
    """Assert that ``got`` has the status and value the Fraction tableau
    finds on the rational ``(terms, relation, rhs)`` rows as given, ``=``
    rows included; ties may end at another point."""
    want = fraction_solve_lp(num_vars, constraints, objective, sense)
    assert (got.status, got.value) == (want.status, want.value), constraints


def _reentries(num_vars, rows, log):
    """The label of each artificial that enters the basis in a simplex
    step of the oracle's ``log``, on solve_lp's rows: each row has a
    slack or surplus, so the artificials, one per row with a negative
    right-hand side, are labelled from ``num_vars + len(rows)`` on.
    Every artificial starts basic, and phase two never enters one, so
    each is a phase-one re-entry."""
    art_start = num_vars + len(rows)
    return [c for kind, _, c, _ in log if kind == "step" and c >= art_start]


def test_random_lps_match_fraction_tableau(pivots):
    rng = random.Random(606)
    statuses = Counter()
    events = Counter()
    relations = Counter()
    for _ in range(1500):
        n, rows, goal, sense = _random_lp(rng)
        result, log = _assert_same(n, _integer(rows), goal, sense, pivots)
        _assert_same_optimum(n, rows, goal, sense, result)
        statuses[result.status] += 1
        events.update(kind for kind, *_ in log)
        events["negative cleanup"] += sum(
            1 for kind, _, _, element in log if kind == "cleanup" and element < 0
        )
        relations.update((rel, rhs < 0) for _, rel, rhs in rows)
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert events["negative cleanup"]
    # a leftover artificial's row holds its surplus, so no row is redundant
    assert events["drop"] == 0
    assert pivots.branches["pivot element divides the row's denominator"] >= 30
    assert pivots.branches["pivot element 1"] >= 100
    # every drawn relation, each sign of right-hand side, reaches the solvers
    assert set(relations) == {(rel, neg) for rel in ("<=", ">=", "=") for neg in (False, True)}


def _random_system(rng):
    """A general ``ConstraintSystem`` of rational rows, with weights and a
    sense: sign rows on some columns, and rows of each relation, about a
    third of them ``>=`` rows of right-hand side 0."""
    n = rng.randint(1, 5)
    columns = tuple(Edge(0, j) for j in range(n))
    rows = [
        polytope.Row((j,), (1,), ">=", 0, "nonneg", str(j))
        for j in range(n)
        if rng.random() < 0.5
    ]
    for i in range(rng.randint(1, 6)):
        cols = tuple(j for j in range(n) if rng.random() < 0.7)
        coeffs = tuple(_rational(rng) for _ in cols)
        if rng.random() < 0.35:
            relation, rhs = ">=", 0
        else:
            relation, rhs = rng.choice(("<=", ">=")), _rational(rng)
        rows.append(polytope.Row(cols, coeffs, relation, rhs, "extra", str(i)))
    system = polytope.ConstraintSystem(columns, tuple(map(str, range(n))), tuple(rows))
    return system, [_rational(rng) for _ in range(n)], rng.choice(("max", "min"))


def test_integer_rows_match_fraction_tableau(monkeypatch, pivots):
    # optimize on general systems with Fraction coefficients hands solve_lp
    # each row's integer form, all ints; the pivots must be the Fraction
    # tableau's on those rows, and status and value the ones it finds on
    # the rows as written, relations and Fractions unscaled
    rng = random.Random(608)
    drawn = [_random_system(rng) for _ in range(400)]
    calls = _recorded_calls(
        monkeypatch, polytope, lambda: [s.optimize(w, sense) for s, w, sense in drawn]
    )
    assert len(calls) == len(drawn)
    statuses = Counter()
    kinds = Counter()
    for (system, weights, sense), args in zip(drawn, calls):
        for terms, rhs in args[1]:
            assert type(rhs) is int and all(type(a) is int for _, a in terms)
            kinds["artificial"] += rhs < 0
        result, _ = _assert_same(*args, pivots)
        rational = [(list(zip(r.cols, r.coeffs)), r.relation, r.rhs) for r in system.rows]
        _assert_same_optimum(len(system.columns), rational, weights, sense, result)
        statuses[result.status] += 1
        for row in system.rows:
            if not row.is_sign:
                fractional = any(F(a).denominator > 1 for a in row.coeffs)
                kinds[row.relation == ">=" and row.rhs == 0, fractional] += 1
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    # >= rows of right-hand side 0, and other rows with a coefficient that
    # is not whole, reach the solver, and rows that need an artificial
    assert kinds[True, True] >= 100 and kinds[False, True] >= 100
    assert kinds["artificial"] >= 100


def test_edge_cases_match_fraction_tableau(pivots):
    # x + y >= 1 and x <= 2
    rows = [([(0, -1), (1, -1)], -1), ([(0, 1)], 2)]
    with pytest.raises(ValueError, match="objective length"):
        solve_lp(2, rows, [F(1)])
    # a float is not a rational the solver takes: it has no denominator
    # (0.1 is not 1/10 in binary)
    for sense in ("max", "min"):
        with pytest.raises(AttributeError, match="denominator"):
            solve_lp(2, rows, [0.1, F(0)], sense)
    assert pivots == []
    # unbounded along y, optimal at x = 2, then optimal on the line x + y = 1
    results = [
        _assert_same(2, rows, objective, "max", pivots)[0]
        for objective in ([F(0), F(1)], [F(1), F(0)], [F(-1), F(-1)])
    ]
    assert [r.status for r in results] == ["unbounded", "optimal", "optimal"]
    assert [r.value for r in results[1:]] == [F(2), F(-1)]
    infeasible = rows + [([(0, 2), (1, 2)], 1)]
    result, _ = _assert_same(2, infeasible, [F(1), F(0)], "min", pivots)
    assert result.status == "infeasible"
    # a column listed twice is the sum of its terms: 3x + 2y + 3x <= 6 is
    # 6x + 2y <= 6
    repeated = [([(0, 3), (1, 2), (0, 3)], 6), ([(1, 1)], 2)]
    result, _ = _assert_same(2, repeated, [F(1), F(1)], "max", pivots)
    assert (result.point, result.value) == ((F(1, 3), F(2)), F(7, 3))


def _recorded_calls(monkeypatch, module, run):
    """Run ``run`` and return the argument tuples ``module`` passed to solve_lp."""
    calls = []
    real = module.solve_lp

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "solve_lp", record)
    run()
    return calls


def test_optimize_lps_match_fraction_tableau(monkeypatch, pivots):
    rng = random.Random(607)
    instances = [random_instance(3, 3, 1.0, rng) for _ in range(8)]
    instances += [random_instance(4, 4, 1.0, rng) for _ in range(3)]

    def run():
        for inst in instances:
            system = build_system(inst)
            for sense in ("max", "min"):
                weights = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in system.columns]
                system.optimize(weights, sense)

    calls = _recorded_calls(monkeypatch, polytope, run)
    assert len(calls) == 2 * len(instances)
    for args in calls:
        result, _ = _assert_same(*args, pivots)
        assert result.status == "optimal"


def test_stability_artificial_reenters_in_phase_one(monkeypatch, pivots):
    # the 11th of a fresh stream of complete 3x3 draws: in phase one the
    # artificial of a stability (>=) row leaves the basis and enters it
    # again. solve_lp stores no column for it and reads it off the row's
    # surplus, and must still take the Fraction tableau's every pivot.
    rng = random.Random(607)
    instance = [random_instance(3, 3, 1.0, rng) for _ in range(11)][10]
    system = build_system(instance)
    calls = _recorded_calls(
        monkeypatch, polytope, lambda: system.optimize([F(1)] * len(system.columns))
    )
    (args,) = calls
    result, log = _assert_same(*args, pivots)
    assert result.status == "optimal"
    assert len(_reentries(args[0], args[1], log)) == 1
    assert pivots.branches["artificial read off its surplus"]


def test_optimize_fraction_row_matches_fraction_tableau(monkeypatch, pivots):
    # a hand-built system whose first stability row weighs its first
    # column by 1/2: optimize hands that row over scaled by 2 and negated,
    # every row as ints, and each solve takes the Fraction tableau's
    # pivots on those rows, with the status and value of the rows as built
    rng = random.Random(609)
    system = build_system(random_instance(3, 3, 1.0, rng))
    rows = list(system.rows)
    k = next(i for i, row in enumerate(rows) if row.kind == "stability" and len(row.cols) > 1)
    rows[k] = dataclasses.replace(rows[k], coeffs=(F(1, 2),) + rows[k].coeffs[1:])
    halved = polytope.ConstraintSystem(system.columns, system.column_names, tuple(rows))

    def run():
        for sense in ("max", "min") * 3:
            weights = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in halved.columns]
            halved.optimize(weights, sense)

    calls = _recorded_calls(monkeypatch, polytope, run)
    assert len(calls) == 6
    # optimize leaves the sign rows out
    at = sum(1 for row in rows[:k] if not row.is_sign)
    halved_row = ([(rows[k].cols[0], -1)] + [(c, -2) for c in rows[k].cols[1:]], -2)
    rational = [(list(zip(r.cols, r.coeffs)), r.relation, r.rhs) for r in rows]
    for args in calls:
        handed = [(list(terms), rhs) for terms, rhs in args[1]]
        assert handed[at] == halved_row
        assert all(type(a) is int for terms, rhs in handed for _, a in (*terms, (0, rhs)))
        result, _ = _assert_same(*args, pivots)
        assert result.status == "optimal"
        _assert_same_optimum(len(halved.columns), rational, args[2], args[3], result)


def test_complete_5x5_optimize_lps_match_fraction_tableau(monkeypatch, pivots):
    # 25 columns, both senses; the runs must reach every per-row path: a
    # pivot row stored at an older denominator, an elimination whose row
    # is over a denominator the pivot element does not divide, one whose
    # row stays over a proper multiple of the pivot element, and a pivot
    # element 1
    rng = random.Random(1313)
    instances = [random_instance(5, 5, 1.0, rng) for _ in range(2)]

    def run():
        for inst in instances:
            system = build_system(inst)
            assert len(system.columns) == 25
            for sense in ("max", "min"):
                weights = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in system.columns]
                system.optimize(weights, sense)

    calls = _recorded_calls(monkeypatch, polytope, run)
    assert [args[3] for args in calls] == ["max", "min"] * len(instances)
    for args in calls:
        result, _ = _assert_same(*args, pivots)
        assert result.status == "optimal"
    assert pivots.branches["stale pivot row"] and pivots.branches["elimination with p not dividing den"]
    assert pivots.branches["pivot element divides the row's denominator"] >= 100
    assert pivots.branches["pivot element 1"] >= 200


def test_midpoint_lps_match_fraction_tableau(pivots, opposed4):
    # the rival LPs of the adjacency oracle: every stable pair of opposed4
    # and of the cyclic Latin 4x4, each pair with two rivals; the oracle
    # writes its rows as equalities, and both solvers take them as pairs
    values = Counter()
    for inst in (opposed4, latin(4)):
        for p, q in combinations(filter_stable(inst), 2):
            pool, rows = midpoint_lp(inst, p, q)
            rows = _integer(rows)
            for k, rival in enumerate(pool):
                if rival in (p, q):
                    continue
                objective = [F(int(i == k)) for i in range(len(pool))]
                result, _ = _assert_same(len(pool), rows, objective, "max", pivots)
                values[result.value] += 1
    assert sum(values.values()) == 24
    assert values[F(0)] and sum(values.values()) > values[F(0)]


# -- golden results of optimize ----------------------------------------------


def _optimize_runs():
    """``(system, weights, sense, ties)`` of the golden ``optimize`` corpus.

    Complete 3x3, 4x4 and 5x5 draws, each with random rational weights
    in both senses; then the all-ones objective, as an edge mapping, on
    every draw with several stable matchings (``ties`` true). Every
    stable matching has the same size, so there each one is optimal and
    the point reported is the one Bland's rule reaches.
    """
    rng = random.Random(2811)
    several = []
    for size, count in ((3, 60), (4, 30), (5, 12)):
        for inst in islice(random_instances(size, size, 1.0, 2810 + size), count):
            system = build_system(inst)
            for sense in ("max", "min"):
                weights = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in system.columns]
                yield system, weights, sense, False
            if len(enumerate_stable(inst, max_edges=size * size)) > 1:
                several.append(system)
    for system in several:
        yield system, {e: 1 for e in system.columns}, "max", True


def test_optimize_results_golden():
    # status, point and value of each solve, hashed; the digest was taken
    # with the simplex that updated every row with its full formula and
    # summed its cost rows over the whole width, so any change to the
    # exact arithmetic must leave every result, ties included, as it was
    digest = hashlib.sha256()
    ties = 0
    for system, weights, sense, tie in _optimize_runs():
        result = system.optimize(weights, sense)
        assert result.status == "optimal"
        if tie:
            ties += 1
            assert set(result.point) <= {0, 1}
        line = [result.status, [str(x) for x in result.point], str(result.value)]
        digest.update(repr(line).encode() + b"\n")
    assert ties >= 30
    assert digest.hexdigest() == (
        "2fd560fdccce7883999a49f3c1c2397aab719284f20f2d10c46de508ed05b59f"
    )


def test_optimize_pivot_log_golden(monkeypatch):
    # the (row, entering label) of every pivot optimize takes, phase one,
    # clean-up and phase two, one line per solve, hashed; the digest was
    # taken with the simplex that took each row with its relation and
    # scaled it itself, so handing it _integer_row's rows moves no pivot
    log = []
    real = simplex._pivot

    def record(tableau, dens, row, enter, d, artificials):
        log.append((row, enter))
        return real(tableau, dens, row, enter, d, artificials)

    monkeypatch.setattr(simplex, "_pivot", record)
    rng = random.Random(2911)
    digest = hashlib.sha256()
    solves = taken = 0
    for size, count in ((3, 40), (4, 20), (5, 8)):
        for inst in islice(random_instances(size, size, 1.0, 2910 + size), count):
            system = build_system(inst)
            for sense in ("max", "min"):
                weights = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in system.columns]
                log.clear()
                assert system.optimize(weights, sense).status == "optimal"
                digest.update(repr(log).encode() + b"\n")
                solves += 1
                taken += len(log)
    assert (solves, taken) == (136, 6420)
    assert digest.hexdigest() == (
        "198a9765e059c63761aedac4fd37fde755d06061a47e65a01898be4a8c8e86b6"
    )
