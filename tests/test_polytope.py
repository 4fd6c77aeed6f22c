import hashlib
import itertools
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stablepoly.instances import Edge, Instance, exhaustive_complete, random_instances
from stablepoly.lattice import enumerate_stable
from stablepoly.matchings import Matching
from stablepoly.polytope import ConstraintSystem, Row, build_system

from corpora import blocks, complete3, draw, golden_instances, latin
from oracles import (
    basis_points,
    cover_pairs,
    dense,
    filter_stable,
    prefix_rank_pick,
    rank,
    slack,
)

F = Fraction
ZERO, ONE, HALF = F(0), F(1), F(1, 2)


def triangle_system():
    """Pairwise caps on three variables: the all-halves point is extreme.

    This is the textbook fractional-vertex shape; it keeps the vertex
    enumeration honest about non-integral corners.
    """
    rows = (
        Row((0, 1), (ONE, ONE), "<=", ONE, "degree", "p"),
        Row((1, 2), (ONE, ONE), "<=", ONE, "degree", "q"),
        Row((0, 2), (ONE, ONE), "<=", ONE, "degree", "r"),
        Row((0,), (ONE,), ">=", ZERO, "nonneg", "x"),
        Row((1,), (ONE,), ">=", ZERO, "nonneg", "y"),
        Row((2,), (ONE,), ">=", ZERO, "nonneg", "z"),
    )
    return ConstraintSystem(
        (Edge(0, 0), Edge(0, 1), Edge(0, 2)), ("x", "y", "z"), rows
    )


def violated_rows(system, point):
    """Indices of the rows ``point`` fails, read straight off the slacks."""
    return [i for i, row in enumerate(system.rows) if slack(row, point) < 0]


def test_row_validation_and_evaluation():
    row = Row((0, 2), (ONE, F(2)), "<=", F(3), "degree", "n")
    assert slack(row, (ONE, F(9), HALF)) == ONE
    assert slack(row, (ONE, F(9), ONE)) == ZERO
    assert slack(Row((0,), (HALF,), ">=", ONE, "stability", "n"), (ONE,)) == -HALF
    with pytest.raises(ValueError):
        Row((0,), (ONE,), "<", ONE, "degree", "n")
    with pytest.raises(ValueError):
        Row((0, 1), (ONE,), "<=", ONE, "degree", "n")
    # a repeated column would leave the row's coefficient on it ambiguous
    with pytest.raises(ValueError, match="repeated column"):
        Row((0, 0), (ONE, ONE), "<=", ONE, "degree", "n")
    assert Row((0,), (ONE,), ">=", ZERO, "nonneg", "x").is_sign
    assert not Row((0,), (F(2),), ">=", ZERO, "nonneg", "x").is_sign
    assert not Row((0,), (ONE,), ">=", ONE, "nonneg", "x").is_sign
    assert not Row((0,), (ONE,), "<=", ZERO, "nonneg", "x").is_sign
    assert not Row((0,), (ONE,), ">=", ZERO, "stability", "x").is_sign
    assert not Row((0, 1), (ONE, ONE), ">=", ZERO, "nonneg", "x").is_sign


def test_build_system_shape(opposed2):
    system = build_system(opposed2)
    assert system.column_names == ("a1 b1", "a1 b2", "a2 b1", "a2 b2")
    kinds = [row.kind for row in system.rows]
    assert kinds.count("degree") == 4
    assert kinds.count("nonneg") == 4
    assert kinds.count("stability") == 4
    assert len(system.rows) == 12


def test_build_system_rows_are_ints(opposed2):
    # Rothblum's rows are 0/1, so build_system writes them as ints; the
    # simplex and vertex enumeration then build no Fraction for a row
    complete5 = next(random_instances(5, 5, 1.0, seed=55))
    for inst in (opposed2, complete5):
        system = build_system(inst)
        assert len(system.columns) == inst.a_count * inst.b_count
        for row in system.rows:
            assert all(type(x) is int for x in (*row.coeffs, row.rhs)), row


def test_build_system_skips_isolated_nodes():
    inst = Instance(2, 2, ((0,), ()), ((0,), ()))
    system = build_system(inst)
    assert system.column_names == ("a1 b1",)
    degree_subjects = {r.subject for r in system.rows if r.kind == "degree"}
    assert degree_subjects == {"a1", "b1"}


def test_domination_row_contents(opposed2):
    system = build_system(opposed2)
    by_subject = {r.subject: r for r in system.rows if r.kind == "stability"}
    row = by_subject["a1 b1"]
    # b1 prefers a2, a1 prefers nothing over b1: row is x[a2 b1] + x[a1 b1] >= 1
    assert set(row.cols) == {0, 2}
    assert row.relation == ">=" and row.rhs == ONE


def test_incidence_vector_and_contains(opposed2):
    system = build_system(opposed2)
    stable = enumerate_stable(opposed2)
    for m in stable:
        assert violated_rows(system, system.incidence_vector(m)) == []
    # midpoint of the two stable corners stays inside
    mid = tuple(
        HALF * (u + v)
        for u, v in zip(*(system.incidence_vector(m) for m in stable))
    )
    assert violated_rows(system, mid) == []
    # but the empty matching violates every domination row
    violations = violated_rows(system, system.incidence_vector(Matching.from_edges([])))
    assert violations
    assert all(system.rows[i].kind == "stability" for i in violations)


def test_unstable_matching_is_outside(opposed2):
    system = build_system(opposed2)
    point = system.incidence_vector(Matching.from_edges([Edge(0, 0)]))
    assert violated_rows(system, point)


def test_vertices_golden(opposed2):
    system = build_system(opposed2)
    report = system.enumerate_vertices()
    points = {v.point for v in report.vertices}
    assert points == {
        (ONE, ZERO, ZERO, ONE),
        (ZERO, ONE, ONE, ZERO),
    }
    assert all(v.integral for v in report.vertices)
    assert report.fractional_vertices() == []
    matched = {
        Matching.from_edges(report.columns[j] for j in v.support()) for v in report.vertices
    }
    assert matched == set(enumerate_stable(opposed2))


def test_vertices_single_edge(single_edge):
    system = build_system(single_edge)
    report = system.enumerate_vertices()
    assert [v.point for v in report.vertices] == [(ONE,)]
    assert report.vertices[0].integral


def test_fractional_vertex_detected_by_both_methods():
    system = triangle_system()
    report = system.enumerate_vertices()
    expected = {
        (ZERO, ZERO, ZERO),
        (ONE, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ZERO, ZERO, ONE),
        (HALF, HALF, HALF),
    }
    assert {v.point for v in report.vertices} == expected
    assert set(basis_points(system)) == expected
    frac = report.fractional_vertices()
    assert [v.point for v in frac] == [(HALF, HALF, HALF)]
    # the all-halves support is three edges at one node, and no matching
    entries = report.to_json()["vertices"]
    assert [e["matching"] for e in entries if not e["integral"]] == [None]


def test_methods_agree_on_random_instances():
    # small systems only: the oracle's basis route solves every square
    # row subset
    stream = random_instances(3, 3, 0.55, seed=411)
    checked = 0
    for inst in itertools.islice(stream, 40):
        system = build_system(inst)
        if len(system.columns) > 6:
            continue
        fast = system.enumerate_vertices()
        assert [v.point for v in fast.vertices] == basis_points(system)
        checked += 1
    assert checked >= 15


def rational_system(rng, width):
    """A bounded system with non-unit rational coefficients.

    Explicit sign rows and one positive cap row per column keep the region
    bounded (and certifiable by ``_upper_bound``); the extra rows have
    mixed-sign coefficients and fractional right-hand sides, so they may
    cut the region down to nothing.
    """

    def ratio(low, high):
        return F(rng.choice([k for k in range(low, high + 1) if k]), rng.randint(1, 5))

    rows = [Row((j,), (ONE,), ">=", ZERO, "nonneg", f"x{j}") for j in range(width)]
    for j in range(width):
        cols = tuple(sorted({j} | set(rng.sample(range(width), rng.randint(0, width - 1)))))
        coeffs = tuple(ratio(1, 4) for _ in cols)
        rows.append(Row(cols, coeffs, "<=", ratio(1, 6), "degree", f"cap{j}"))
    for k in range(rng.randint(1, 3)):
        cols = tuple(sorted(rng.sample(range(width), rng.randint(1, width))))
        coeffs = tuple(ratio(-4, 4) for _ in cols)
        relation = rng.choice(("<=", ">="))
        rows.append(Row(cols, coeffs, relation, ratio(-3, 6), "extra", f"r{k}"))
    columns = tuple(Edge(0, j) for j in range(width))
    return ConstraintSystem(columns, tuple(f"x{j}" for j in range(width)), tuple(rows))


def thirds_triangle():
    third = F(1, 3)
    rows = tuple(
        r if r.is_sign else Row(r.cols, (third,) * len(r.cols), "<=", third, r.kind, r.subject)
        for r in triangle_system().rows
    )
    return ConstraintSystem(triangle_system().columns, ("x", "y", "z"), rows)


def test_rational_rows_match_oracle():
    # build_system only makes 0/1 rows; these reach the per-row scaling
    rng = random.Random(4409)
    nonempty = fractional = 0
    for _ in range(120):
        system = rational_system(rng, rng.randint(1, 4))
        points = [v.point for v in system.enumerate_vertices().vertices]
        assert points == basis_points(system)
        nonempty += bool(points)
        fractional += any(x.denominator > 2 for p in points for x in p)
    assert nonempty >= 50 and fractional >= 45
    # the triangle once more, its caps written in thirds: still the
    # all-halves corner
    system = thirds_triangle()
    points = [v.point for v in system.enumerate_vertices().vertices]
    assert (HALF, HALF, HALF) in points
    assert points == basis_points(system)


def assert_certificates_match_oracle(system):
    width = len(system.columns)
    for vertex in system.enumerate_vertices(max_edges=width).vertices:
        tight = [i for i, row in enumerate(system.rows) if slack(row, vertex.point) == 0]
        assert list(vertex.tight) == tight
        assert set(vertex.basis) <= set(vertex.tight)
        assert len(vertex.basis) == width
        assert rank([dense(system.rows[i], width) for i in vertex.basis]) == width
        # the vertices JSON prints the basis, so it must be the first
        # independent rows of the tight set, not merely some basis
        vectors = [dense(system.rows[i], width) for i in tight]
        assert list(vertex.basis) == [tight[k] for k in prefix_rank_pick(vectors, width)]


def zero_term_system():
    """Columns x, y and rows ``0 x + y <= 1``, ``y <= 1``, the two sign
    rows and ``x <= 1``: the unit square, its top edge given twice.

    Row 0 lists x with an explicit zero coefficient. A pick that took
    that entry as a pivot would count rows 0 and 1 independent and report
    ``(0, 1)`` as the basis at (0, 1) and at (1, 1).
    """
    rows = (
        Row((0, 1), (0, 1), "<=", 1, "degree", "y with x"),
        Row((1,), (1,), "<=", 1, "degree", "y"),
        Row((0,), (1,), ">=", 0, "nonneg", "x"),
        Row((1,), (1,), ">=", 0, "nonneg", "y"),
        Row((0,), (1,), "<=", 1, "degree", "x"),
    )
    return ConstraintSystem((Edge(0, 0), Edge(0, 1)), ("x", "y"), rows)


def test_vertex_basis_is_tight_and_full_rank():
    # the certificates come from the insertion's tight-row masks; the
    # oracle recomputes each tight set from the raw rows and each basis
    # by prefix ranks
    for inst in exhaustive_complete(2):
        assert_certificates_match_oracle(build_system(inst))
    for k in sorted(random.Random(5105).sample(range(6**6), 60)):
        assert_certificates_match_oracle(build_system(complete3(k)))
    rng = random.Random(4409)
    for _ in range(120):
        assert_certificates_match_oracle(rational_system(rng, rng.randint(1, 4)))
    assert_certificates_match_oracle(thirds_triangle())
    # 16 columns, 36 tight rows at each of its four vertices
    assert_certificates_match_oracle(build_system(latin(4)))
    system = zero_term_system()
    assert_certificates_match_oracle(system)
    bases = {v.point: v.basis for v in system.enumerate_vertices().vertices}
    assert bases[(ZERO, ONE)] == (0, 2)
    assert bases[(ONE, ONE)] == (0, 4)


def test_certificates_on_16_columns():
    # ten complete 4x4 draws and blocks(4): at 16 columns the insertion
    # lifts many columns between cuts, and every tight set and basis must
    # still match the oracle's
    for inst in itertools.islice(random_instances(4, 4, 1.0, seed=5111), 10):
        assert_certificates_match_oracle(build_system(inst))
    assert_certificates_match_oracle(build_system(blocks(4)))


def columns_system(width, rows):
    """A system over columns ``x0 .. x{width-1}``, each with its sign row
    after ``rows``."""
    names = tuple(f"x{j}" for j in range(width))
    signs = tuple(Row((j,), (ONE,), ">=", ZERO, "nonneg", n) for j, n in enumerate(names))
    columns = tuple(Edge(0, j) for j in range(width))
    return ConstraintSystem(columns, names, tuple(rows) + signs)


def assert_lift_matches_oracles(system):
    """The points against ``basis_points`` and the certificates against
    ``slack``; returns the points."""
    points = [v.point for v in system.enumerate_vertices().vertices]
    assert points == basis_points(system)
    assert_certificates_match_oracle(system)
    return points


def test_lift_column_first_reached_by_a_late_row():
    # x1 and x2 appear only in rows whose last column is x3, so the
    # insertion cuts with x0 <= 1 first and then lifts x1, x2 and x3 in
    # one go; the zero coefficient puts x3 in the triangle's third side
    system = columns_system(4, (
        Row((0,), (ONE,), "<=", ONE, "degree", "x0"),
        Row((0, 3), (ONE, ONE), "<=", F(3, 2), "degree", "x0 x3"),
        Row((1, 3), (ONE, ONE), "<=", ONE, "degree", "x1 x3"),
        Row((2, 3), (ONE, ONE), "<=", ONE, "degree", "x2 x3"),
        Row((1, 2, 3), (ONE, ONE, ZERO), "<=", ONE, "degree", "x1 x2"),
    ))
    late = [row for row in system.rows if {1, 2} & set(row.cols) and not row.is_sign]
    assert {max(row.cols) for row in late} == {3}
    points = assert_lift_matches_oracles(system)
    assert (ZERO, HALF, HALF, HALF) in points
    assert (ONE, HALF, HALF, HALF) in points
    assert len(points) == 13


def test_lift_skips_vertices_on_the_bounding_facet():
    # every row ends at x2, so x0, x1 and x2 are lifted before the first
    # cut: x1's lift meets bound * e0 on the bounding facet, and x2's
    # meets bound * e0 and bound * e1. A twin there would repeat the
    # point with a sign row wrongly dropped from its mask.
    system = columns_system(3, (
        Row((0, 2), (ONE, ONE), "<=", ONE, "degree", "x0 x2"),
        Row((1, 2), (ONE, ONE), "<=", ONE, "degree", "x1 x2"),
        Row((0, 1, 2), (ONE, ONE, ONE), "<=", F(3, 2), "degree", "all"),
    ))
    points = assert_lift_matches_oracles(system)
    assert points == [
        (ZERO, ZERO, ZERO),
        (ZERO, ZERO, ONE),
        (ZERO, ONE, ZERO),
        (HALF, HALF, HALF),
        (HALF, ONE, ZERO),
        (ONE, ZERO, ZERO),
        (ONE, HALF, ZERO),
    ]


def test_lift_around_rows_with_no_columns():
    square = (
        Row((0,), (ONE,), "<=", ONE, "degree", "x0"),
        Row((1,), (ONE,), "<=", ONE, "degree", "x1"),
    )
    # 0 <= -1 goes in before any column is lifted and leaves nothing
    empty = columns_system(2, square + (Row((), (), "<=", -ONE, "extra", "never"),))
    assert assert_lift_matches_oracles(empty) == []
    # 0 >= 0 is tight at every vertex, and 0 <= 1 at none
    system = columns_system(2, (
        Row((), (), ">=", ZERO, "extra", "always tight"),
        Row((), (), "<=", ONE, "extra", "never tight"),
    ) + square)
    assert assert_lift_matches_oracles(system) == [
        (ZERO, ZERO), (ZERO, ONE), (ONE, ZERO), (ONE, ONE)
    ]
    for vertex in system.enumerate_vertices().vertices:
        assert 0 in vertex.tight and 1 not in vertex.tight


def test_lift_with_a_repeated_sign_row():
    # the triangle with x2 >= 0 given twice: the first copy holds x2 at 0
    # until its lift, the second goes in as an ordinary row after it
    base = triangle_system()
    repeat = Row((2,), (ONE,), ">=", ZERO, "nonneg", "z again")
    system = ConstraintSystem(base.columns, base.column_names, base.rows + (repeat,))
    points = assert_lift_matches_oracles(system)
    assert points == [v.point for v in base.enumerate_vertices().vertices]
    tight = {v.point: v.tight for v in system.enumerate_vertices().vertices}
    assert tight[(ONE, ZERO, ZERO)] == (0, 2, 4, 5, 6)


def report_digest(instances):
    h = hashlib.sha256()
    for inst in instances:
        doc = build_system(inst).enumerate_vertices().to_json()
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_vertex_report_bytes_golden():
    # digests of the reports written by the Fraction-arithmetic insertion
    # loop that the integer one replaced; complete 3x3 systems are the most
    # degenerate, so a vertex lost to a wrong shortcut shows there first
    picks = sorted(random.Random(5101).sample(range(6**6), 150))
    small = []
    for a, b, p, seed in ((3, 3, 0.8, 5102), (3, 4, 0.7, 5103), (4, 4, 0.6, 5104)):
        stream = random_instances(a, b, p, seed)
        small.extend(itertools.islice((i for i in stream if len(i.canonical_edges()) <= 10), 40))
    assert report_digest(exhaustive_complete(2)) == (
        "9c4ac2b5b2eb73ce7477b6b43106298211ae5f52eae38ba22e4c7f4e554ac347"
    )
    assert report_digest(complete3(k) for k in picks) == (
        "67a1fbee376c0aba02c25e3cda7a20c1cdac93ee171b8b2d99c969482169f14d"
    )
    assert report_digest(small) == (
        "2c956a10e9d1d5376df6e43fa2c197cc8acc395edf8962f27156c60e06e4b233"
    )


def relabelled(system, rng):
    """``system`` with its columns and its rows shuffled.

    Returns the new system, the new index of each old column and the new
    index of each old row.
    """
    width = len(system.columns)
    col_to = list(range(width))
    rng.shuffle(col_to)
    row_order = list(range(len(system.rows)))
    rng.shuffle(row_order)
    row_to = [0] * len(row_order)
    for new, old in enumerate(row_order):
        row_to[old] = new
    columns, names = [None] * width, [None] * width
    for old, new in enumerate(col_to):
        columns[new] = system.columns[old]
        names[new] = system.column_names[old]
    rows = []
    for old in row_order:
        row = system.rows[old]
        rows.append(
            Row(tuple(col_to[c] for c in row.cols), row.coeffs, row.relation,
                row.rhs, row.kind, row.subject)
        )
    return ConstraintSystem(tuple(columns), tuple(names), tuple(rows)), col_to, row_to


def assert_vertices_follow_relabelling(system, rng):
    width = len(system.columns)
    twin, col_to, row_to = relabelled(system, rng)
    expected = {}
    for v in system.enumerate_vertices(max_edges=width).vertices:
        point = [ZERO] * width
        for old, new in enumerate(col_to):
            point[new] = v.point[old]
        expected[tuple(point)] = sorted(row_to[i] for i in v.tight)
    got = {v.point: list(v.tight) for v in twin.enumerate_vertices(max_edges=width).vertices}
    assert got == expected


def test_vertices_do_not_depend_on_insertion_order():
    # the insertion takes rows by their last column, so renumbering the
    # columns changes the order the halfspaces go in; the points and the
    # tight sets must only follow the renumbering
    rng = random.Random(5107)
    golden = 0
    for _, inst in golden_instances():
        system = build_system(inst)
        # the 25- and 36-column members take minutes at any order
        if len(system.columns) <= 16:
            assert_vertices_follow_relabelling(system, rng)
            golden += 1
    assert golden == 23
    drawn = 0
    while drawn < 100:
        inst = draw(rng, rng.randint(1, 4), rng.randint(1, 4), 0.7)
        system = build_system(inst)
        if len(system.columns) <= 10:
            assert_vertices_follow_relabelling(system, rng)
            drawn += 1
    for _ in range(40):
        assert_vertices_follow_relabelling(rational_system(rng, rng.randint(1, 4)), rng)


def test_wide_draw_stays_cheap():
    # a 24-column 5x5 draw: inserting rows in system order (every degree
    # row, then every stability row) takes about 13 s on it; inserting
    # them by last column, each column lifted as its first row enters,
    # takes about 0.009 s of CPU (2-core VM, Python 3.11.7), against
    # 0.07 s with a spike seeded for every column at the start
    inst = list(itertools.islice(random_instances(5, 5, 0.9, seed=3), 5))[-1]
    system = build_system(inst)
    assert len(system.columns) == 24
    start = time.process_time()
    report = system.enumerate_vertices(max_edges=len(system.columns))
    elapsed = time.process_time() - start
    assert report.fractional_vertices() == []
    stable = {
        tuple(ONE if tuple(e) in m else ZERO for e in system.columns)
        for m in map(set, filter_stable(inst))
    }
    assert {v.point for v in report.vertices} == stable
    assert len(stable) == 4
    assert elapsed < 8, f"{elapsed:.1f} s of CPU"


def doubled_lid_cube():
    """The unit cube with ``z <= 1`` given twice, cut by ``x + y + z <= 5/2``.

    Before the cut, the opposite top corners (0, 0, 1) and (1, 1, 1)
    share two tight rows, the two copies of the lid, which is ``width -
    1``: the popcount prefilter passes the pair although it spans only a
    diagonal of the top face.
    """
    names = ("x", "y", "z")
    rows = [Row((c,), (ONE,), "<=", ONE, "degree", n) for c, n in enumerate(names)]
    rows.append(Row((2,), (ONE,), "<=", ONE, "degree", "z again"))
    rows.append(Row((0, 1, 2), (ONE, ONE, ONE), "<=", F(5, 2), "extra", "cut"))
    rows += [Row((c,), (ONE,), ">=", ZERO, "nonneg", n) for c, n in enumerate(names)]
    columns = tuple(Edge(0, c) for c in range(3))
    return ConstraintSystem(columns, names, tuple(rows))


def test_degenerate_face_pair_is_not_an_edge():
    system = doubled_lid_cube()
    tight = {v.point: v.tight for v in system.enumerate_vertices().vertices}
    # rows: 0-2 the caps x, y, z; 3 the second z cap; 4 the cut; 5-7
    # signs. Had the diagonal been taken for an edge, the cut would have
    # added (3/4, 3/4, 1), tight on the two lids and the cut only.
    assert tight == {
        (ZERO, ZERO, ZERO): (5, 6, 7),
        (ZERO, ZERO, ONE): (2, 3, 5, 6),
        (ZERO, ONE, ZERO): (1, 5, 7),
        (ZERO, ONE, ONE): (1, 2, 3, 5),
        (ONE, ZERO, ZERO): (0, 6, 7),
        (ONE, ZERO, ONE): (0, 2, 3, 6),
        (ONE, ONE, ZERO): (0, 1, 7),
        (HALF, ONE, ONE): (1, 2, 3, 4),
        (ONE, HALF, ONE): (0, 2, 3, 4),
        (ONE, ONE, HALF): (0, 1, 4),
    }
    assert list(tight) == basis_points(system)
    # the pair the prefilter passes: its shared tight rows are the two lids
    cube = ConstraintSystem(system.columns, system.column_names, system.rows[:4] + system.rows[5:])
    low, high = (ZERO, ZERO, ONE), (ONE, ONE, ONE)
    shared = {
        i for i, row in enumerate(cube.rows) if slack(row, low) == 0 == slack(row, high)
    }
    assert shared == {2, 3}


def test_enumerate_vertices_bounds(opposed4):
    system = build_system(opposed4)
    with pytest.raises(ValueError, match="limit"):
        system.enumerate_vertices(max_edges=4)


def test_empty_region_has_no_vertices():
    rows = (
        Row((0,), (ONE,), "<=", ONE, "degree", "n"),
        Row((0,), (ONE,), ">=", F(2), "stability", "n"),
        Row((0,), (ONE,), ">=", ZERO, "nonneg", "x"),
    )
    system = ConstraintSystem((Edge(0, 0),), ("x",), rows)
    assert system.enumerate_vertices().vertices == ()
    assert basis_points(system) == []


def assert_stability_rows_match_oracle(inst):
    system = build_system(inst)
    covers = cover_pairs(inst)
    assert set(covers) == {tuple(e) for e in system.columns}
    rows = [r for r in system.rows if r.kind == "stability"]
    assert [r.subject for r in rows] == list(system.column_names)
    for e, row in zip(system.columns, rows):
        assert row.relation == ">=" and row.rhs == ONE
        assert set(row.coeffs) == {ONE}
        assert {tuple(system.columns[c]) for c in row.cols} == covers[tuple(e)]


def test_stability_rows_match_cover_oracle():
    for inst in exhaustive_complete(2):
        assert_stability_rows_match_oracle(inst)
    for inst in itertools.islice(random_instances(3, 3, 0.6, seed=431), 60):
        assert_stability_rows_match_oracle(inst)


def test_oracles_stay_independent():
    # the oracle comparisons are only evidence if the reference routes
    # share no code with the library: no import of the package at all,
    # and no vertex enumeration, linear algebra or simplex by name
    src = (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
    imports = re.findall(r"^\s*(?:from|import)\s.*$", src, re.M)
    assert not [line for line in imports if re.search(r"\b(?:stablepoly|linalg|simplex)\b", line)]
    for name in ("enumerate_vertices", "_points_by_incidence"):
        assert not re.search(rf"\b{name}\b", src), name


def test_cap_spelled_as_a_ge_row_bounds_the_region():
    # -x - y >= -1 is x + y <= 1: either spelling caps both columns, so
    # both systems enumerate the same three vertices, and optimize agrees
    signs = (
        Row((0,), (ONE,), ">=", ZERO, "nonneg", "x"),
        Row((1,), (ONE,), ">=", ZERO, "nonneg", "y"),
    )
    columns, names = (Edge(0, 0), Edge(0, 1)), ("x", "y")
    spellings = [
        ConstraintSystem(columns, names, signs + (Row((0, 1), (ONE, ONE), "<=", ONE, "degree", "p"),)),
        ConstraintSystem(columns, names, signs + (Row((0, 1), (-ONE, -ONE), ">=", -ONE, "degree", "p"),)),
    ]
    reports = [system.enumerate_vertices() for system in spellings]
    for report in reports:
        assert [v.point for v in report.vertices] == [(ZERO, ZERO), (ZERO, ONE), (ONE, ZERO)]
    assert reports[0].vertices == reports[1].vertices
    for system in spellings:
        assert basis_points(system) == [(ZERO, ZERO), (ZERO, ONE), (ONE, ZERO)]
        result = system.optimize([F(2), F(3)])
        assert (result.point, result.value) == ((ZERO, ONE), F(3))


def test_negative_cap_leaves_no_vertices():
    # x + y/2 <= -1 caps both columns below zero; the bounding simplex
    # must still have a positive size for the insertion to end empty
    half = F(1, 2)
    rows = (
        Row((0,), (ONE,), ">=", ZERO, "nonneg", "x"),
        Row((1,), (ONE,), ">=", ZERO, "nonneg", "y"),
        Row((0, 1), (ONE, half), "<=", F(4), "degree", "p"),
        Row((0, 1), (ONE, half), "<=", -ONE, "extra", "q"),
    )
    system = ConstraintSystem((Edge(0, 0), Edge(0, 1)), ("x", "y"), rows)
    assert system.enumerate_vertices().vertices == ()
    assert basis_points(system) == []


def test_zero_width_system():
    empty = Instance(1, 1, ((),), ((),))
    system = build_system(empty)
    assert system.columns == ()
    report = system.enumerate_vertices()
    assert [v.point for v in report.vertices] == [()]


def test_zero_width_infeasible_system():
    # 0 >= 1 holds nowhere, so not even the empty point survives
    system = ConstraintSystem((), (), (Row((), (), ">=", ONE, "bogus", "z"),))
    assert system.enumerate_vertices().vertices == ()
    assert basis_points(system) == []


def test_optimize_matches_vertex_scan(opposed2):
    system = build_system(opposed2)
    weights = {
        Edge(0, 0): F(3),
        Edge(0, 1): F(1),
        Edge(1, 0): F(1),
        Edge(1, 1): F(2),
    }
    result = system.optimize(weights)
    assert result.status == "optimal"
    assert result.value == F(5)
    assert result.point == (ONE, ZERO, ZERO, ONE)
    low = system.optimize(weights, "min")
    assert low.value == F(2)


def test_optimize_rejects_bad_objective(opposed2):
    system = build_system(opposed2)
    with pytest.raises(ValueError, match="objective length"):
        system.optimize([ONE])


def test_weights_off_the_columns_are_refused(opposed2, single_edge):
    # a weight keyed by a non-column would otherwise be dropped, leaving
    # the zero objective; both readers of an edge mapping refuse it and
    # name every such key in the mapping's order
    system = build_system(opposed2)
    bad = {Edge(9, 9): F(5), Edge(0, 0): F(1), "a1 b1": F(2)}
    message = re.escape("weights keyed by non-columns: Edge(a=9, b=9), 'a1 b1'")
    with pytest.raises(ValueError, match=message):
        system.optimize(bad)
    with pytest.raises(ValueError, match=message):
        system.to_lp_text(bad)
    # an in-range pair that is not an edge of the instance is no column
    lone = build_system(Instance(1, 2, ((0,),), ((0,), ())))
    with pytest.raises(ValueError, match=re.escape("Edge(a=0, b=1)")):
        lone.optimize({Edge(0, 1): 1}, "min")
    # the column edges alone, and the same weights as a sequence, solve
    weights = {Edge(0, 0): F(3), Edge(1, 1): F(2)}
    assert system.optimize(weights) == system.optimize([F(3), ZERO, ZERO, F(2)])
    assert build_system(single_edge).optimize({Edge(0, 0): 1}).value == 1


def test_lp_text_golden(single_edge):
    system = build_system(single_edge)
    text = system.to_lp_text()
    assert text == (
        "x[a1 b1] <= 1  # degree a1\n"
        "x[a1 b1] <= 1  # degree b1\n"
        "x[a1 b1] >= 0  # nonneg a1 b1\n"
        "x[a1 b1] >= 1  # stability a1 b1\n"
    )
    with_goal = system.to_lp_text({Edge(0, 0): F(2)}, "max")
    assert with_goal.startswith("max: 2 x[a1 b1]\n")


def test_system_json_shape(opposed2):
    doc = build_system(opposed2).to_json()
    assert doc["columns"] == ["a1 b1", "a1 b2", "a2 b1", "a2 b2"]
    assert len(doc["rows"]) == 12
    assert all(
        set(r) == {"terms", "relation", "rhs", "kind", "subject"}
        for r in doc["rows"]
    )
    # each entry of a 0/1 row prints as a bare integer
    assert [(r["terms"], r["rhs"]) for r in doc["rows"]] == [
        ({"a1 b1": "1", "a1 b2": "1"}, "1"),
        ({"a2 b1": "1", "a2 b2": "1"}, "1"),
        ({"a1 b1": "1", "a2 b1": "1"}, "1"),
        ({"a1 b2": "1", "a2 b2": "1"}, "1"),
        ({"a1 b1": "1"}, "0"),
        ({"a1 b2": "1"}, "0"),
        ({"a2 b1": "1"}, "0"),
        ({"a2 b2": "1"}, "0"),
        ({"a1 b1": "1", "a2 b1": "1"}, "1"),
        ({"a1 b1": "1", "a1 b2": "1"}, "1"),
        ({"a2 b1": "1", "a2 b2": "1"}, "1"),
        ({"a1 b2": "1", "a2 b2": "1"}, "1"),
    ]


def test_report_json_shape(opposed2):
    report = build_system(opposed2).enumerate_vertices()
    doc = report.to_json()
    assert doc["method"] == "incidence"
    assert doc["counts"] == {"total": 2, "integral": 2, "fractional": 0}
    assert doc["columns"] == ["a1 b1", "a1 b2", "a2 b1", "a2 b2"]
    assert doc["vertices"][0]["point"] == ["0", "1", "1", "0"]
