import itertools
import json
import random

import pytest

from stablepoly.instances import (
    Edge,
    Instance,
    InstanceError,
    NodeId,
    SIDE_A,
    SIDE_B,
    exhaustive_complete,
    instance_from_json,
    instance_to_json,
    load_instance,
    parse_weights,
    random_instance,
    random_instances,
    remove_edge,
    validate,
)

from oracles import edge_pairs


def test_edge_endpoints():
    e = Edge(2, 5)
    assert e.a_node == NodeId(SIDE_A, 2)
    assert e.b_node == NodeId(SIDE_B, 5)
    assert e.other(e.a_node) == e.b_node
    assert e.other(e.b_node) == e.a_node
    with pytest.raises(ValueError):
        e.other(NodeId(SIDE_A, 3))


def test_names_default_and_lookup(opposed2):
    assert opposed2.a_names == ("a1", "a2")
    assert opposed2.b_names == ("b1", "b2")
    assert opposed2.node_by_name("b2") == NodeId(SIDE_B, 1)
    assert opposed2.node_name(NodeId(SIDE_A, 0)) == "a1"
    assert opposed2.edge_name(Edge(0, 1)) == "a1 b2"
    with pytest.raises(KeyError):
        opposed2.node_by_name("c1")


def test_edges_require_mutual_listing():
    # a1 lists b1 but b1 does not list a1: no edge, and validate says so
    inst = Instance(1, 1, ((0,),), ((),))
    assert inst.edges == frozenset()
    problems = validate(inst)
    assert any("mismatch" in p for p in problems)
    assert validate(inst)


def test_neighbors_in_preference_order(opposed2):
    b = NodeId(SIDE_B, 0)
    assert opposed2.neighbors(b) == (NodeId(SIDE_A, 1), NodeId(SIDE_A, 0))


def test_prefers_treats_none_as_worst(opposed2):
    a1 = NodeId(SIDE_A, 0)
    b1, b2 = NodeId(SIDE_B, 0), NodeId(SIDE_B, 1)
    assert opposed2.prefers(a1, b1, b2)
    assert not opposed2.prefers(a1, b2, b1)
    assert opposed2.prefers(a1, b2, None)
    assert not opposed2.prefers(a1, None, b2)
    assert not opposed2.prefers(a1, None, None)


def test_rank_and_better_edges(opposed2):
    a1 = NodeId(SIDE_A, 0)
    b1, b2 = NodeId(SIDE_B, 0), NodeId(SIDE_B, 1)
    assert opposed2.rank(a1, b1) == 0
    assert opposed2.rank(a1, b2) == 1
    # strictly better only: the cutoff itself is excluded
    assert opposed2.better_edges(at=a1, than=b2) == frozenset({Edge(0, 0)})
    assert opposed2.better_edges(at=a1, than=b1) == frozenset()
    # a1 lists b1 one-sidedly and keeps its position; a2 lists index 5
    lopsided = Instance(2, 2, ((1, 0), (5,)), ((), (0,)))
    assert lopsided.rank(a1, b1) == 1
    refused = [
        (opposed2, a1, NodeId(SIDE_A, 1)),  # same side
        (opposed2, b2, NodeId(SIDE_B, 0)),
        (lopsided, b1, a1),  # unranked
        (opposed2, NodeId(SIDE_A, -1), b1),  # a tuple index of -1 wraps
        (opposed2, a1, NodeId(SIDE_B, -1)),
        (opposed2, NodeId(SIDE_A, 2), b1),  # out of range
        (opposed2, a1, NodeId(SIDE_B, 9)),
        (lopsided, NodeId(SIDE_A, 1), NodeId(SIDE_B, 5)),  # listed, out of range
    ]
    for inst, node, other in refused:
        with pytest.raises(ValueError):
            inst.rank(node, other)


def test_validate_catches_bad_tables():
    assert validate(Instance(1, 2, ((0, 0),), ((0,), (0,)))) != []
    assert validate(Instance(1, 1, ((3,),), ((0,),))) != []
    with pytest.raises(ValueError):
        Instance(2, 1, ((0,),), ((0,),))


def test_remove_edge_drops_both_listings(opposed4):
    reduced = remove_edge(opposed4, Edge(0, 0))
    assert Edge(0, 0) not in reduced.edges
    assert reduced.a_prefs[0] == (1,)
    assert reduced.b_prefs[0] == (1,)
    # untouched lists carry over, names too
    assert reduced.a_prefs[2] == opposed4.a_prefs[2]
    assert reduced.a_names == opposed4.a_names
    # the original is immutable and unaffected
    assert Edge(0, 0) in opposed4.edges
    with pytest.raises(ValueError):
        remove_edge(reduced, Edge(0, 0))


def test_remove_edge_keeps_relative_order():
    inst = Instance(1, 3, ((2, 0, 1),), ((0,), (0,), (0,)))
    reduced = remove_edge(inst, Edge(0, 0))
    assert reduced.a_prefs[0] == (2, 1)


def test_exhaustive_complete_counts():
    assert sum(1 for _ in exhaustive_complete(1)) == 1
    assert sum(1 for _ in exhaustive_complete(2)) == 16
    assert sum(1 for _ in exhaustive_complete(3)) == 46656
    for n in (0, 4):
        with pytest.raises(ValueError):
            next(exhaustive_complete(n))


def test_exhaustive_complete_all_distinct_and_valid():
    seen = set(itertools.islice(exhaustive_complete(2), 16))
    assert len(seen) == 16
    assert all(not validate(inst) for inst in seen)


def test_random_instance_edges_are_mutual():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(3, 4, 0.6, rng)
        assert not validate(inst)
        assert sorted((e.a, e.b) for e in inst.edges) == edge_pairs(inst)


def test_random_instances_deterministic():
    first = list(itertools.islice(random_instances(3, 3, 0.5, seed=11), 20))
    again = list(itertools.islice(random_instances(3, 3, 0.5, seed=11), 20))
    other = list(itertools.islice(random_instances(3, 3, 0.5, seed=12), 20))
    assert first == again
    assert first != other


def test_random_instance_edge_prob_extremes():
    rng = random.Random(3)
    assert random_instance(2, 2, 0.0, rng).edges == frozenset()
    assert len(random_instance(2, 2, 1.0, rng).edges) == 4
    # low density plus the skip flag still always yields at least one edge
    for _ in range(20):
        assert random_instance(2, 2, 0.1, rng, skip_edgeless=True).edges


def test_skip_edgeless_refuses_when_no_edge_can_be_drawn():
    rng = random.Random(5)
    for a_count, b_count, p in ((2, 2, 0.0), (2, 2, -1.0), (0, 3, 0.5), (3, 0, 1.0)):
        with pytest.raises(ValueError, match="skip_edgeless"):
            random_instance(a_count, b_count, p, rng, skip_edgeless=True)
    # without the flag these are legal, edgeless draws
    assert random_instance(0, 3, 0.5, rng).edges == frozenset()
    stream = random_instances(2, 2, float("nan"), seed=1, skip_edgeless=True)
    with pytest.raises(ValueError):
        next(stream)


def test_json_round_trip(opposed4):
    doc = instance_to_json(opposed4)
    again = instance_from_json(doc)
    assert again == opposed4
    # serialization is order-stable
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        instance_to_json(again), sort_keys=True
    )


def test_json_rejects_malformed():
    with pytest.raises(InstanceError):
        instance_from_json([])
    with pytest.raises(InstanceError):
        instance_from_json({"a": ["x", "x"], "b": ["y"], "prefs": {}})
    with pytest.raises(InstanceError):
        instance_from_json({"a": ["x"], "b": ["x"], "prefs": {}})
    with pytest.raises(InstanceError):
        instance_from_json({"a": ["x"], "b": ["y"], "prefs": {"x": ["z"]}})
    # a list or an object in a preference list is a problem, not a crash
    for entry in (["y"], {"y": 1}):
        with pytest.raises(InstanceError, match="not a node name"):
            instance_from_json({"a": ["x"], "b": ["y"], "prefs": {"x": [entry], "y": ["x"]}})
    # one-sided listing is reported as a mismatch
    with pytest.raises(InstanceError, match="mismatch"):
        instance_from_json({"a": ["x"], "b": ["y"], "prefs": {"x": ["y"]}})


def test_load_instance(tmp_path, opposed2):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(opposed2)))
    assert load_instance(str(path)) == opposed2
    path.write_text("{nope")
    with pytest.raises(InstanceError):
        load_instance(str(path))


def test_parse_weights(opposed2):
    from fractions import Fraction

    weights = parse_weights({"a1 b1": "1/3", "a2 b1": 2}, opposed2)
    assert weights == {Edge(0, 0): Fraction(1, 3), Edge(1, 0): Fraction(2)}
    for bad in (
        ["a1 b1"],
        {"a1": "1"},
        {"a1 c9": "1"},
        {"a1 a2": "1"},
        {"a1 b1": "x"},
        {"a1 b1": "1", " a1  b1 ": "2"},
    ):
        with pytest.raises(InstanceError):
            parse_weights(bad, opposed2)
