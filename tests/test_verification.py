import itertools
import random

import pytest

from stablepoly.instances import Instance, LimitError, random_instances
from stablepoly.lattice import MAX_STABLE_EDGES, enumerate_stable
from stablepoly.polytope import MAX_VERTEX_COLUMNS, build_system
from stablepoly.verification import verify_instance

from corpora import blocks, latin
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
