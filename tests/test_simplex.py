import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from stablepoly import polytope, simplex
from stablepoly.instances import random_instance
from stablepoly.polytope import build_system
from stablepoly.simplex import solve_lp

from corpora import latin
from oracles import _fraction_pivot as oracle_pivot
from oracles import filter_stable, fraction_solve_lp, midpoint_lp

F = Fraction


def test_max_two_vars():
    # max x + y st x + 2y <= 4, 3x + y <= 6: optimum at (8/5, 6/5)
    result = solve_lp(
        2,
        [
            ([(0, F(1)), (1, F(2))], "<=", F(4)),
            ([(0, F(3)), (1, F(1))], "<=", F(6)),
        ],
        [F(1), F(1)],
    )
    assert result.status == "optimal"
    assert result.point == (F(8, 5), F(6, 5))
    assert result.value == F(14, 5)


def test_min_with_surplus():
    # min 2x + 3y st x + y >= 4, x <= 3
    result = solve_lp(
        2,
        [
            ([(0, F(1)), (1, F(1))], ">=", F(4)),
            ([(0, F(1))], "<=", F(3)),
        ],
        [F(2), F(3)],
        "min",
    )
    assert result.status == "optimal"
    assert result.point == (F(3), F(1))
    assert result.value == F(9)


def test_equality_rows():
    result = solve_lp(
        3,
        [
            ([(0, F(1)), (1, F(1)), (2, F(1))], "=", F(1)),
            ([(0, F(1)), (1, F(-1))], "=", F(0)),
        ],
        [F(0), F(0), F(1)],
    )
    assert result.status == "optimal"
    assert result.point == (F(0), F(0), F(1))
    assert result.value == F(1)


def test_infeasible():
    result = solve_lp(
        1,
        [
            ([(0, F(1))], "<=", F(1)),
            ([(0, F(1))], ">=", F(2)),
        ],
        [F(1)],
    )
    assert result.status == "infeasible"
    assert result.point is None


def test_unbounded():
    result = solve_lp(2, [([(0, F(1))], "<=", F(1))], [F(0), F(1)])
    assert result.status == "unbounded"


def test_negative_rhs_normalized():
    # -x <= -2 is x >= 2
    result = solve_lp(1, [([(0, F(-1))], "<=", F(-2))], [F(1)], "min")
    assert result.status == "optimal"
    assert result.point == (F(2),)


def test_degenerate_cycling_guard():
    """Beale's classic cycling example; Bland's rule must terminate."""
    result = solve_lp(
        4,
        [
            ([(0, F(1, 4)), (1, F(-8)), (2, F(-1)), (3, F(9))], "<=", F(0)),
            ([(0, F(1, 2)), (1, F(-12)), (2, F(-1, 2)), (3, F(3))], "<=", F(0)),
            ([(2, F(1))], "<=", F(1)),
        ],
        [F(3, 4), F(-20), F(1, 2), F(-6)],
    )
    assert result.status == "optimal"
    assert result.value == F(5, 4)


def test_redundant_equalities_driven_out():
    # second row repeats the first; phase 1 must not report infeasible
    result = solve_lp(
        2,
        [
            ([(0, F(1)), (1, F(1))], "=", F(1)),
            ([(0, F(2)), (1, F(2))], "=", F(2)),
        ],
        [F(1), F(0)],
    )
    assert result.status == "optimal"
    assert result.value == F(1)


def test_zero_objective_feasibility_probe():
    result = solve_lp(2, [([(0, F(1)), (1, F(1))], "=", F(1))], [F(0), F(0)], "min")
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
        rows = [([(j, F(1))], "<=", F(rng.randint(1, 4))) for j in range(n)]
        # 0/1 coefficients keep every vertex of the region integral,
        # so the half-step grid below provably covers all of them
        for _ in range(rng.randint(0, 2)):
            terms = [(j, F(1)) for j in range(n) if rng.random() < 0.6]
            if terms:
                rows.append((terms, "<=", F(rng.randint(2, 6))))
        goal = [F(rng.randint(-3, 3)) for _ in range(n)]
        result = solve_lp(n, rows, goal)
        assert result.status == "optimal"

        def ok(point):
            for terms, rel, rhs in rows:
                lhs = sum(c * point[j] for j, c in terms)
                if rel == "<=" and lhs > rhs:
                    return False
            return True

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
    rows = [([(1, F(-2))], "<=", F(-1)), ([(1, F(-2))], ">=", F(-1))]
    log = []
    fraction_solve_lp(2, rows, [F(-2), F(1)], "max", log)
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
    # rescale p*a // den, which must be exact too.
    rng = random.Random(1314)
    seen = Counter()
    for _ in range(40):
        tableau = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(6)] for _ in range(4)]
        dens = [1] * len(tableau)
        d = 1
        for _ in range(6):
            row, col = rng.randrange(4), rng.randrange(6)
            if tableau[row][col] == 0:
                continue
            rational = [[F(x, den) for x in r] for r, den in zip(tableau, dens)]
            oracle_pivot(rational, [F(0)] * 6, row, col)
            kept = {
                r: (tableau[r], dens[r])
                for r in range(len(tableau))
                if r != row and tableau[r][col] == 0
            }
            seen["negative"] += tableau[row][col] * dens[row] < 0
            pivot_row = [x * d // dens[row] for x in tableau[row]]
            p = abs(pivot_row[col])
            seen["off support"] += sum(
                1
                for r, a in enumerate(tableau)
                if r != row and a[col] and dens[r] != p
                and any(x and not b for x, b in zip(a, pivot_row))
            )
            d = simplex._pivot(tableau, dens, row, col, d, {})
            assert d > 0 and all(den > 0 for den in dens)
            assert [[F(x, den) for x in r] for r, den in zip(tableau, dens)] == rational
            for r, (kept_row, kept_den) in kept.items():
                assert tableau[r] is kept_row and dens[r] == kept_den
            seen["kept"] += len(kept)
    assert seen["kept"] and seen["negative"] and seen["off support"] >= 20


def test_pivot_column_zero_in_other_rows():
    # x's column is zero in the y row and the other way round: each pivot
    # leaves the other row as it is, over its own denominator, and the y
    # row must still end at y = 5
    result = solve_lp(
        2, [([(0, F(2))], "<=", F(3)), ([(1, F(3))], "<=", F(15))], [F(1), F(1)]
    )
    assert result.status == "optimal"
    assert result.point == (F(3, 2), F(5))
    assert result.value == F(13, 2)


def test_mixed_denominator_rows():
    # x/2 + y/3 <= 1 and x/5 + y <= 7/10 meet at (23/13, 9/26), which
    # beats the other vertices (2, 0) and (0, 7/10)
    result = solve_lp(
        2,
        [
            ([(0, F(1, 2)), (1, F(1, 3))], "<=", F(1)),
            ([(0, F(1, 5)), (1, F(1))], "<=", F(7, 10)),
        ],
        [F(1), F(1)],
    )
    assert result.status == "optimal"
    assert result.point == (F(23, 13), F(9, 26))
    assert result.value == F(55, 26)


def test_int_and_fraction_coefficients_agree(pivots):
    # an int is a rational of denominator 1: the all-int first row, the
    # mixed second row and the all-Fraction copy are scaled alike and
    # take the same pivots
    rows = [([(0, 1), (1, 2)], "<=", 4), ([(0, F(3)), (1, 1)], "<=", F(6))]
    as_ints = solve_lp(2, rows, [1, 1])
    int_pivots = list(pivots)
    pivots.clear()
    as_fractions = solve_lp(
        2,
        [([(j, F(c)) for j, c in terms], rel, F(rhs)) for terms, rel, rhs in rows],
        [F(1), F(1)],
    )
    assert as_ints == as_fractions
    assert int_pivots and int_pivots == pivots
    assert as_ints.point == (F(8, 5), F(6, 5))
    assert all(type(x) is Fraction for x in as_ints.point)
    assert type(as_ints.value) is Fraction


def test_fractional_objective_value_in_caller_units():
    # the solver works with 6 * (x/3 + y/2); value is in the caller's units
    for sense, point, value in (("max", (F(0), F(1)), F(1, 2)), ("min", (F(1), F(0)), F(1, 3))):
        result = solve_lp(
            2, [([(0, F(1)), (1, F(1))], "=", F(1))], [F(1, 3), F(1, 2)], sense
        )
        assert result.status == "optimal"
        assert result.point == point
        assert result.value == value


# -- differential tests against the Fraction tableau ----------------------


def _rational(rng):
    return F(0) if rng.random() < 0.3 else F(rng.randint(-6, 6), rng.randint(1, 6))


def _random_lp(rng):
    """A small LP over every relation; some rows are scaled repeats."""
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
    tableau stores it in, not by the column it is read off.
    """
    taken = _PivotLog()
    real = simplex._pivot

    def record(tableau, dens, row, enter, d, artificials):
        assert d > 0
        # every row's denominator, the cost row's (last while a phase runs) too
        assert len(dens) == len(tableau) and all(den > 0 for den in dens)
        # the entering variable, an artificial by its own label, and the
        # sign of its element, read off its column as _pivot reads it
        col, sign, _ = artificials.get(enter, (enter, 1, 0))
        element = sign * tableau[row][col]
        taken.append((row, enter, element > 0))
        if dens[row] != d:
            taken.branches["stale pivot row"] += 1
        if sign < 0:
            taken.branches["artificial read off its surplus"] += 1
        p = abs(element * d // dens[row])
        if any(r != row and a[col] and dens[r] != p for r, a in enumerate(tableau)):
            taken.branches["elimination with p != den"] += 1
        return real(tableau, dens, row, enter, d, artificials)

    monkeypatch.setattr(simplex, "_pivot", record)
    return taken


def _steps(log):
    return [(r, c, e > 0) for kind, r, c, e in log if kind != "drop"]


def _assert_same(num_vars, constraints, objective, sense, pivots):
    """Assert that solve_lp and the Fraction tableau agree on the result
    and on every pivot; return the result and the oracle's log."""
    pivots.clear()
    log = []
    got = solve_lp(num_vars, constraints, objective, sense)
    want = fraction_solve_lp(num_vars, constraints, objective, sense, log=log)
    args = (num_vars, constraints, objective, sense)
    assert (got.status, got.point, got.value) == (want.status, want.point, want.value), args
    assert pivots == _steps(log), args
    return got, log


def _reentries(num_vars, constraints, log):
    """The relation of the row of each artificial that enters the basis
    in a simplex step of the oracle's ``log``, as the row stands after a
    negative right-hand side is flipped. Every artificial starts basic,
    and phase two never enters one, so each is a phase-one re-entry."""
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    relations = [flip[rel] if rhs < 0 else rel for _, rel, rhs in constraints]
    art_start = num_vars + sum(1 for rel in relations if rel != "=")
    owners = [rel for rel in relations if rel != "<="]
    return [owners[c - art_start] for kind, _, c, _ in log if kind == "step" and c >= art_start]


def test_random_lps_match_fraction_tableau(pivots):
    rng = random.Random(606)
    statuses = Counter()
    events = Counter()
    relations = Counter()
    for _ in range(1500):
        n, rows, goal, sense = _random_lp(rng)
        result, log = _assert_same(n, rows, goal, sense, pivots)
        statuses[result.status] += 1
        events.update(kind for kind, *_ in log)
        events["negative cleanup"] += sum(
            1 for kind, _, _, element in log if kind == "cleanup" and element < 0
        )
        events.update(f"{rel} re-entry" for rel in _reentries(n, rows, log))
        relations.update((rel, rhs < 0) for _, rel, rhs in rows)
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert events["negative cleanup"] and events["drop"]
    # an = row's artificial, stored in its own column, enters again
    assert events["= re-entry"] >= 1
    assert set(relations) == {(rel, neg) for rel in ("<=", ">=", "=") for neg in (False, True)}


def test_integer_rows_match_fraction_tableau(pivots):
    # the random LPs with about half of the rows scaled by the lcm of
    # their denominators and given as plain ints, so those take
    # solve_lp's integer path at scale 1 beside Fraction rows at their
    # own scales; the pivots must be the Fraction tableau's, and the ones
    # the same rows take as Fractions (the unscaled rows are another
    # phase one: its objective sums the artificials of the rows as given)
    rng = random.Random(608)
    relations = Counter()
    for _ in range(600):
        n, rows, goal, sense = _random_lp(rng)
        mixed = []
        for terms, relation, rhs in rows:
            if rng.random() < 0.5:
                mixed.append((terms, relation, rhs))
                continue
            scale = math.lcm(rhs.denominator, *[c.denominator for _, c in terms])
            ints = [(j, int(c * scale)) for j, c in terms]
            mixed.append((ints, relation, int(rhs * scale)))
            relations[relation, rhs < 0] += 1
        got, _ = _assert_same(n, mixed, goal, sense, pivots)
        int_pivots = list(pivots)
        pivots.clear()
        as_fractions = [([(j, F(c)) for j, c in t], rel, F(rhs)) for t, rel, rhs in mixed]
        assert solve_lp(n, as_fractions, goal, sense) == got
        assert pivots == int_pivots
    assert set(relations) == {(rel, neg) for rel in ("<=", ">=", "=") for neg in (False, True)}


def test_edge_cases_match_fraction_tableau(pivots):
    rows = [([(0, F(1)), (1, F(1))], ">=", F(1)), ([(0, F(1))], "<=", F(2))]
    with pytest.raises(ValueError, match="objective length"):
        solve_lp(2, rows, [F(1)])
    # a float is not a rational the solver takes: it has no denominator
    for floats in ([([(0, 0.5)], "<=", F(2))], [([(0, F(1))], "<=", 2.0)]):
        with pytest.raises(AttributeError, match="denominator"):
            solve_lp(2, floats, [F(1), F(0)])
    assert pivots == []
    # unbounded along y, optimal at x = 2, then optimal on the line x + y = 1
    results = [
        _assert_same(2, rows, objective, "max", pivots)[0]
        for objective in ([F(0), F(1)], [F(1), F(0)], [F(-1), F(-1)])
    ]
    assert [r.status for r in results] == ["unbounded", "optimal", "optimal"]
    assert [r.value for r in results[1:]] == [F(2), F(-1)]
    infeasible = rows + [([(0, F(1)), (1, F(1))], "<=", F(1, 2))]
    result, _ = _assert_same(2, infeasible, [F(1), F(0)], "min", pivots)
    assert result.status == "infeasible"


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
    assert _reentries(args[0], args[1], log) == [">="]
    assert pivots.branches["artificial read off its surplus"]


def test_optimize_fraction_row_matches_fraction_tableau(monkeypatch, pivots):
    # a hand-built system whose first stability row weighs its first
    # column by 1/2: optimize hands that row over as Fractions and every
    # other row as ints, and each solve takes the Fraction tableau's pivots
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
    for args in calls:
        constraints = args[1]
        kinds = Counter(
            Fraction if any(type(w) is Fraction for _, w in terms) else int
            for terms, _, _ in constraints
        )
        assert kinds[Fraction] == 1 and kinds[int] == len(constraints) - 1
        result, _ = _assert_same(*args, pivots)
        assert result.status == "optimal"


def test_complete_5x5_optimize_lps_match_fraction_tableau(monkeypatch, pivots):
    # 25 columns, both senses; the runs must reach both per-row paths: a
    # pivot row stored at an older denominator, and an elimination whose
    # row is over a denominator other than the pivot element
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
    assert pivots.branches["stale pivot row"] and pivots.branches["elimination with p != den"]


def test_midpoint_lps_match_fraction_tableau(pivots, opposed4):
    # the rival LPs of the adjacency oracle: every stable pair of opposed4
    # and of the cyclic Latin 4x4, each pair with two rivals
    values = Counter()
    for inst in (opposed4, latin(4)):
        for p, q in combinations(filter_stable(inst), 2):
            pool, rows = midpoint_lp(inst, p, q)
            for k, rival in enumerate(pool):
                if rival in (p, q):
                    continue
                objective = [F(int(i == k)) for i in range(len(pool))]
                result, _ = _assert_same(len(pool), rows, objective, "max", pivots)
                values[result.value] += 1
    assert sum(values.values()) == 24
    assert values[F(0)] and sum(values.values()) > values[F(0)]
