import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest

from stablepoly.instances import Edge, Instance, exhaustive_complete, random_instances
from stablepoly.lattice import enumerate_stable
from stablepoly.matchings import Matching
from stablepoly.polytope import ConstraintSystem, Row, build_system

from oracles import basis_points, cover_pairs, rank

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
    return [i for i, row in enumerate(system.rows) if row.slack(point) < 0]


def test_row_validation_and_evaluation():
    row = Row((0, 2), (ONE, F(2)), "<=", F(3), "degree", "n")
    assert row.value((ONE, F(9), HALF)) == F(2)
    assert row.slack((ONE, F(9), ONE)) == ZERO
    assert row.is_tight((ONE, F(9), ONE))
    assert row.dense(3) == [ONE, ZERO, F(2)]
    with pytest.raises(ValueError):
        Row((0,), (ONE,), "<", ONE, "degree", "n")
    with pytest.raises(ValueError):
        Row((0, 1), (ONE,), "<=", ONE, "degree", "n")
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
    matched = {report.matching_of(v) for v in report.vertices}
    assert matched == set(enumerate_stable(opposed2))


def test_vertices_single_edge(single_edge):
    system = build_system(single_edge)
    report = system.enumerate_vertices()
    assert [v.point for v in report.vertices] == [(ONE,)]
    assert report.vertices[0].integral


def test_vertex_basis_is_tight_and_full_rank(opposed2):
    system = build_system(opposed2)
    for vertex in system.enumerate_vertices().vertices:
        assert set(vertex.basis) <= set(vertex.tight)
        dense = [system.rows[i].dense(len(system.columns)) for i in vertex.basis]
        assert rank(dense) == len(system.columns)
        for i in vertex.tight:
            assert system.rows[i].is_tight(vertex.point)


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
    assert report.matching_of(frac[0]) is None


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
    # the oracle comparisons above are only evidence if the reference
    # route shares no vertex enumeration or linear algebra with the library
    src = (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
    imports = re.findall(r"^\s*(?:from|import)\s.*$", src, re.M)
    assert not [line for line in imports if re.search(r"\blinalg\b", line)]
    for name in ("enumerate_vertices", "_points_by_incidence"):
        assert not re.search(rf"\b{name}\b", src), name


def test_zero_width_system():
    empty = Instance(1, 1, ((),), ((),))
    system = build_system(empty)
    assert system.columns == ()
    report = system.enumerate_vertices()
    assert [v.point for v in report.vertices] == [()]


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
    with pytest.raises(ValueError):
        system.optimize([ONE])


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


def test_report_json_shape(opposed2):
    report = build_system(opposed2).enumerate_vertices()
    doc = report.to_json()
    assert doc["method"] == "incidence"
    assert doc["counts"] == {"total": 2, "integral": 2, "fractional": 0}
    assert doc["columns"] == ["a1 b1", "a1 b2", "a2 b1", "a2 b2"]
    assert doc["vertices"][0]["point"] == ["0", "1", "1", "0"]
