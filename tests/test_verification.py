import itertools
import random
from fractions import Fraction

import pytest

import stablepoly.verification
from stablepoly.instances import Edge, Instance, LimitError, random_instances
from stablepoly.lattice import MAX_STABLE_EDGES, enumerate_stable
from stablepoly.matchings import Matching
from stablepoly.polytope import MAX_VERTEX_COLUMNS, ConstraintSystem, Row, build_system
from stablepoly.verification import verify_instance

from corpora import blocks, complete3, latin
from oracles import basis_points, stable_sets


def test_verify_opposed(opposed2):
    result = verify_instance(opposed2)
    assert result.ok
    assert len(result.stable) == 2
    assert len(result.report.vertices) == 2
    assert result.fractional == ()
    assert result.missing == ()
    assert result.extra == ()


def test_verify_single_edge(single_edge):
    result = verify_instance(single_edge)
    assert result.ok
    assert len(result.stable) == 1


def test_verify_edgeless():
    result = verify_instance(Instance(1, 1, ((),), ((),)))
    assert result.ok
    # the empty matching is the only stable one, and the only vertex
    assert len(result.stable) == 1
    assert len(result.report.vertices) == 1


def test_verify_json_shape(opposed2):
    doc = verify_instance(opposed2).to_json()
    assert doc["ok"] is True
    assert doc["stable_count"] == 2
    assert doc["vertex_count"] == 2
    assert doc["fractional"] == []
    assert doc["missing"] == []
    assert doc["extra"] == []
    assert doc["instance"]["a"] == ["a1", "a2"]


def test_verify_respects_edge_bound(opposed4):
    with pytest.raises(ValueError, match="limit"):
        verify_instance(opposed4, max_edges=4)


def test_size_limits_raise_limit_error():
    # LimitError is a ValueError, so callers that catch ValueError still do
    assert issubclass(LimitError, ValueError)
    n = MAX_STABLE_EDGES + 1
    wide = Instance(1, n, (tuple(range(n)),), ((0,),) * n)  # a star with n edges
    with pytest.raises(LimitError, match=f"limit is {MAX_STABLE_EDGES}$"):
        enumerate_stable(wide)
    with pytest.raises(LimitError, match=f"limit is {MAX_VERTEX_COLUMNS}$"):
        build_system(wide).enumerate_vertices()
    with pytest.raises(LimitError):
        verify_instance(wide)


def test_verify_methods_agree(opposed2, opposed4):
    fast = verify_instance(opposed2)
    assert fast.ok
    assert [v.point for v in fast.report.vertices] == basis_points(
        build_system(opposed2)
    )
    # the four-matching square is too wide for the oracle's basis route
    # to be quick, but the incidence route handles it directly
    wide = verify_instance(opposed4)
    assert wide.ok
    assert len(wide.stable) == 4


def test_verify_random_sweep():
    stream = random_instances(4, 4, 0.55, seed=421)
    checked = 0
    for inst in itertools.islice(stream, 40):
        if len(inst.edges) > 10:
            continue
        result = verify_instance(inst)
        assert result.ok, inst
        assert len(result.stable) >= (1 if not inst.edges else 1)
        checked += 1
    assert checked >= 25


def test_verify_past_the_column_limit():
    # 16 columns, past the default limit of 10: complete 4x4 draws and
    # two rich lattices, each vertex set against the brute-force
    # stable sets
    rng = random.Random(1604)
    instances = [
        Instance(
            4,
            4,
            tuple(tuple(rng.sample(range(4), 4)) for _ in range(4)),
            tuple(tuple(rng.sample(range(4), 4)) for _ in range(4)),
        )
        for _ in range(30)
    ]
    instances += [blocks(4), latin(4)]
    for inst in instances:
        result = verify_instance(inst, max_edges=16)
        assert result.ok, inst
        columns = result.report.columns
        assert len(columns) == 16
        expected = {
            tuple(int(tuple(e) in s) for e in columns) for s in stable_sets(inst)
        }
        assert {v.point for v in result.report.vertices} == expected


def point(*values):
    return tuple(Fraction(x) for x in values)


def assert_points(got, expected):
    assert got == expected
    assert all(type(x) is Fraction for p in got for x in p)


def test_verify_reports_a_dropped_stability_row(monkeypatch):
    # without the stability row of a1 b3 the region gains three integral
    # vertices that are not stable matchings and three half-integral ones
    def without_a1_b3(instance):
        system = build_system(instance)
        rows = tuple(r for r in system.rows if (r.kind, r.subject) != ("stability", "a1 b3"))
        assert len(rows) == len(system.rows) - 1
        return ConstraintSystem(system.columns, system.column_names, rows)

    monkeypatch.setattr(stablepoly.verification, "build_system", without_a1_b3)
    result = verify_instance(complete3(4259))
    assert not result.ok
    assert len(result.stable) == 1 and len(result.report.vertices) == 7
    h = Fraction(1, 2)
    assert_points(result.fractional, (
        point(h, 0, h, 0, h, h, h, 0, 0),
        point(h, 0, h, h, h, 0, 0, 0, h),
        point(h, 0, h, h, h, 0, 0, h, h),
    ))
    assert result.missing == ()
    assert_points(result.extra, (
        point(0, 1, 0, 0, 0, 1, 1, 0, 0),
        point(0, 1, 0, 1, 0, 0, 0, 0, 1),
        point(1, 0, 0, 0, 0, 1, 0, 1, 0),
    ))
    doc = result.to_json()
    assert doc["ok"] is False
    assert doc["fractional"][0] == ["1/2", "0", "1/2", "0", "1/2", "1/2", "1/2", "0", "0"]
    assert doc["extra"][2] == ["1", "0", "0", "0", "0", "1", "0", "1", "0"]


def test_verify_reports_a_capped_stable_edge(opposed4, monkeypatch):
    # x[a1 b1] <= 0 cuts off the two stable matchings that use a1 b1;
    # they are reported by their incidence vectors' order, not in the
    # order the stable enumeration lists them
    def capped(instance):
        system = build_system(instance)
        cap = Row((0,), (1,), "<=", 0, "cap", system.column_names[0])
        return ConstraintSystem(system.columns, system.column_names, system.rows + (cap,))

    monkeypatch.setattr(stablepoly.verification, "build_system", capped)
    result = verify_instance(opposed4)
    assert not result.ok
    assert len(result.stable) == 4 and len(result.report.vertices) == 2
    assert result.fractional == () and result.extra == ()
    crossed = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    straight = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 2), Edge(3, 3)])
    assert result.missing == (crossed, straight)
    assert enumerate_stable(opposed4)[:2] == [straight, crossed]
    assert result.to_json()["missing"] == [
        [["a1", "b1"], ["a2", "b2"], ["a3", "b4"], ["a4", "b3"]],
        [["a1", "b1"], ["a2", "b2"], ["a3", "b3"], ["a4", "b4"]],
    ]
