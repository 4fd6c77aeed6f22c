import itertools

import pytest

from stablepoly.instances import Instance, random_instances
from stablepoly.polytope import build_system
from stablepoly.verification import verify_instance

from oracles import basis_points


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
