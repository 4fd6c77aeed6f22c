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
)

from corpora import draw
from oracles import cover_pairs, edge_pairs


def test_names_default_and_lookup(opposed2):
    assert opposed2.a_names == ("a1", "a2")
    assert opposed2.b_names == ("b1", "b2")
    assert opposed2.node_by_name("b2") == NodeId(SIDE_B, 1)
    assert opposed2.node_name(NodeId(SIDE_A, 0)) == "a1"
    assert opposed2.edge_name(Edge(0, 1)) == "a1 b2"
    with pytest.raises(KeyError):
        opposed2.node_by_name("c1")


def test_edges_require_mutual_listing():
    # a1 lists b1 but b1 does not list a1: no edge, so the table is refused
    with pytest.raises(ValueError) as refused:
        Instance(1, 1, ((0,),), ((),))
    assert str(refused.value) == "edge/pref mismatch: a1 lists b1 but b1 does not list a1"
    with pytest.raises(ValueError) as refused:
        Instance(1, 1, ((),), ((0,),))
    assert str(refused.value) == "edge/pref mismatch: b1 lists a1 but a1 does not list b1"
    # in an accepted table every listing is an edge
    inst = Instance(2, 2, ((1, 0), (0,)), ((0, 1), (0,)))
    assert inst.edges == {Edge(0, 1), Edge(0, 0), Edge(1, 0)}


def test_cover_sets_match_oracle():
    """The covers built by walking each list equal the ones the oracle
    cuts from the preference lists by rank comparisons."""
    rng = random.Random(412)
    square = [draw(rng, 4, 4, 0.8) for _ in range(60)]
    lopsided = [draw(rng, 3, 5, 0.7) for _ in range(30)]
    plain = list(itertools.islice(random_instances(4, 3, 0.7, seed=413), 30))
    for inst in itertools.chain(exhaustive_complete(2), square, lopsided, plain):
        covers = {tuple(e): {tuple(f) for f in cover} for e, cover in inst.cover_sets.items()}
        assert covers == cover_pairs(inst)


def test_cover_members_are_the_instances_own_edges():
    # a cover holds the instance's Edge objects, not equal copies of them
    rng = random.Random(414)
    instances = [draw(rng, 4, 4, 0.8) for _ in range(20)]
    instances += list(itertools.islice(random_instances(4, 3, 0.7, seed=415), 20))
    for inst in itertools.chain(exhaustive_complete(2), instances):
        own = {id(e) for e in inst.edges}
        assert {id(e) for e in inst.cover_sets} <= own
        assert all(id(f) in own for cover in inst.cover_sets.values() for f in cover)


def test_constructor_refuses_bad_tables():
    # each fault is named, side A's range and order faults first, then
    # the one-sided listings of side A and of side B
    for table, message in (
        (
            (1, 2, ((0, 0),), ((0,), (0,))),
            "not a strict order: duplicate b1 in prefs of a1; "
            "edge/pref mismatch: b2 lists a1 but a1 does not list b2",
        ),
        (
            (1, 1, ((3,),), ((0,),)),
            "unknown neighbour index 3 in prefs of a1; "
            "edge/pref mismatch: b1 lists a1 but a1 does not list b1",
        ),
        (
            (1, 1, ((0,),), ((0, 0),)),
            "not a strict order: duplicate a1 in prefs of b1",
        ),
        (
            (2, 1, ((0,), ()), ((0, -2),)),
            "unknown neighbour index -2 in prefs of b1",
        ),
    ):
        with pytest.raises(ValueError) as refused:
            Instance(*table)
        assert str(refused.value) == message
    with pytest.raises(ValueError):
        Instance(2, 1, ((0,),), ((0,),))


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
    assert all(len(inst.edges) == 4 for inst in seen)


def test_random_instance_edges_are_mutual():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(3, 4, 0.6, rng)
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


def test_json_rejects_names_with_whitespace():
    # "x 1 y" could not be read back as a weight key, nor told apart in lp text
    for a, b in ((["x 1"], ["y"]), (["x"], ["y\t2"]), (["x\u00a0"], ["y"])):
        with pytest.raises(InstanceError, match="whitespace"):
            instance_from_json({"a": a, "b": b, "prefs": {}})


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
