import itertools
import random

import pytest

from stablepoly.instances import (
    Edge,
    Instance,
    NodeId,
    SIDE_A,
    SIDE_B,
    exhaustive_complete,
    random_instances,
)
from stablepoly.matchings import (
    Matching,
    blocking_pairs,
    gale_shapley,
    is_stable,
    matchings_iter,
)

from corpora import draw
from oracles import is_stable_pairs, stable_sets


def test_matching_rejects_shared_node():
    with pytest.raises(ValueError):
        Matching.from_edges([Edge(0, 0), Edge(0, 1)])
    with pytest.raises(ValueError):
        Matching.from_edges([Edge(0, 1), Edge(2, 1)])


def test_from_pairs_validates(opposed2):
    m = Matching.from_pairs(opposed2, [["a1", "b1"], ["b2", "a2"]])
    assert m.edges == frozenset({Edge(0, 0), Edge(1, 1)})
    with pytest.raises(ValueError):
        Matching.from_pairs(opposed2, [["a1"]])
    with pytest.raises(ValueError):
        Matching.from_pairs(opposed2, [["a1", "a2"]])
    with pytest.raises(ValueError, match="unknown node"):
        Matching.from_pairs(opposed2, [["a1", "b9"]])
    # a string or an object is not read as the sequence of its letters or keys
    for entry in (5, "ab", {"a1": 1, "b1": 2}, ["a1", 5], ("a1",)):
        with pytest.raises(ValueError, match="not a pair"):
            Matching.from_pairs(opposed2, [entry])
    with pytest.raises(ValueError, match="not a pair"):
        Matching.from_pairs(Instance(1, 1, ((0,),), ((0,),), ("a",), ("b",)), ["ab"])


def test_from_pairs_requires_instance_edges(opposed4):
    # a1 and b3 are both real nodes but not neighbours
    with pytest.raises(ValueError):
        Matching.from_pairs(opposed4, [["a1", "b3"]])


def test_partner_covers_roundtrip(opposed2):
    m = Matching.from_edges([Edge(0, 0)])
    a1, b1 = NodeId(SIDE_A, 0), NodeId(SIDE_B, 0)
    assert m.partner(a1) == b1
    assert m.partner(b1) == a1
    assert m.partner(NodeId(SIDE_A, 1)) is None
    assert m.sorted_edges() == (Edge(0, 0),)
    assert m.to_pairs(opposed2) == [["a1", "b1"]]
    assert len(m) == 1


def test_label(opposed2):
    m = Matching.from_edges([Edge(1, 1), Edge(0, 0)])
    assert m.label(opposed2) == "a1 b1, a2 b2"
    assert Matching.from_edges([]).label(opposed2) == "(empty)"


def test_is_stable_golden(opposed2):
    best_for_a = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    best_for_b = Matching.from_edges([Edge(0, 1), Edge(1, 0)])
    assert is_stable(opposed2, best_for_a, cross_check=True)
    assert is_stable(opposed2, best_for_b, cross_check=True)
    for single in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert not is_stable(opposed2, Matching.from_edges([Edge(*single)]))
    assert not is_stable(opposed2, Matching.from_edges([]))


def test_is_stable_rejects_non_subgraph(opposed4):
    stray = Matching.from_edges([Edge(0, 2)])
    with pytest.raises(ValueError):
        is_stable(opposed4, stray)


def test_blocking_pairs_golden(opposed2, single_edge):
    m = Matching.from_edges([Edge(0, 0)])
    # a2 is free and wanted by both women he lists, so two edges block
    assert blocking_pairs(opposed2, m) == [Edge(1, 0), Edge(1, 1)]
    assert blocking_pairs(single_edge, Matching.from_edges([])) == [Edge(0, 0)]
    assert blocking_pairs(single_edge, Matching.from_edges([Edge(0, 0)])) == []


def test_stability_routes_agree_everywhere():
    """The covering test, the blocking-pair scan, and the oracle coincide,
    also on 4x4 draws where one-sided listings shift the rank positions."""
    rng = random.Random(402)
    one_sided = (draw(rng, 4, 4, 0.8, 0.3) for _ in range(30))
    stream = random_instances(3, 3, 0.7, seed=401)
    for inst in itertools.chain(itertools.islice(stream, 40), one_sided):
        for m in matchings_iter(inst):
            verdict = is_stable(inst, m, cross_check=True)
            pairs = {(e.a, e.b) for e in m.edges}
            assert verdict == is_stable_pairs(inst, pairs)


def test_gale_shapley_golden(opposed2):
    assert gale_shapley(opposed2).edges == {Edge(0, 0), Edge(1, 1)}
    assert gale_shapley(opposed2, SIDE_B).edges == {Edge(0, 1), Edge(1, 0)}
    with pytest.raises(ValueError):
        gale_shapley(opposed2, "c")


def test_gale_shapley_always_stable():
    stream = random_instances(4, 3, 0.6, seed=402)
    for inst in itertools.islice(stream, 60):
        for side in (SIDE_A, SIDE_B):
            assert is_stable(inst, gale_shapley(inst, side), cross_check=True)


def test_gale_shapley_proposer_optimal():
    """Every proposer weakly prefers the deferred-acceptance outcome to
    any other stable matching's assignment."""
    stream = random_instances(3, 3, 0.8, seed=403)
    for inst in itertools.islice(stream, 25):
        best = gale_shapley(inst, SIDE_A)
        for pairs in stable_sets(inst):
            rival = Matching.from_edges([Edge(i, j) for i, j in pairs])
            for i in range(inst.a_count):
                node = NodeId(SIDE_A, i)
                got, other = best.partner(node), rival.partner(node)
                if got != other:
                    assert inst.prefers(node, got, other)


def test_matchings_iter_counts():
    complete3 = next(exhaustive_complete(3))
    seen = list(matchings_iter(complete3))
    assert len(seen) == 34
    assert len(set(seen)) == 34
    assert Matching.from_edges([]) in seen

    from stablepoly.instances import Instance

    complete4 = Instance(
        4,
        4,
        tuple((0, 1, 2, 3) for _ in range(4)),
        tuple((0, 1, 2, 3) for _ in range(4)),
    )
    assert sum(1 for _ in matchings_iter(complete4)) == 209


def test_matchings_iter_matches_oracle():
    stream = random_instances(3, 4, 0.5, seed=404)
    for inst in itertools.islice(stream, 30):
        mine = {frozenset((e.a, e.b) for e in m.edges) for m in matchings_iter(inst)}
        stable = set(stable_sets(inst))
        assert stable <= mine
        assert all(
            is_stable(inst, Matching.from_edges([Edge(i, j) for i, j in s]))
            for s in stable
        )
