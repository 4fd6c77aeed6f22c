import gc
import itertools
import json
import random
import re
import weakref

import pytest

from stablepoly import lattice, matchings
from stablepoly.adjacency import adjacency_verdict
from stablepoly.instances import (
    SIDE_A,
    SIDE_B,
    Edge,
    Instance,
    LimitError,
    NodeId,
    random_instances,
)
from stablepoly.lattice import (
    SwapStabilityError,
    UniformityError,
    decompose,
    enumerate_stable,
    meet_join,
)
from stablepoly.matchings import Matching, is_stable

from corpora import blocks, complete3, draw, golden_instances, latin
from oracles import filter_stable, flip_meet_join, is_stable_pairs, stable_sets


def as_pairs(stable):
    return [tuple((e.a, e.b) for e in m.sorted_edges()) for m in stable]


def assert_closed_walk(comp):
    """The component is one cycle: its nodes alternate a, b from an
    a-node, are distinct, and edge k joins node k to the next one, the
    last edge closing the walk at the first node."""
    nodes = comp.nodes
    assert len(nodes) == len(comp.edges) >= 4 and len(set(nodes)) == len(nodes)
    assert [n.side for n in nodes] == [SIDE_A, SIDE_B] * (len(nodes) // 2)
    for k, edge in enumerate(comp.edges):
        ends = {nodes[k], nodes[(k + 1) % len(nodes)]}
        assert ends == {NodeId(SIDE_A, edge.a), NodeId(SIDE_B, edge.b)}


def pair_of(instance):
    """The two stable matchings of an opposed 2x2 block layout."""
    stable = enumerate_stable(instance)
    assert len(stable) == 2
    return stable


def test_decompose_single_cycle(opposed2):
    best_for_a = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    best_for_b = Matching.from_edges([Edge(0, 1), Edge(1, 0)])
    deco = decompose(opposed2, best_for_a, best_for_b)
    assert len(deco.components) == 1
    comp = deco.components[0]
    assert_closed_walk(comp)
    assert comp.a_prefers == 1
    assert comp.edge_set == best_for_a.edges | best_for_b.edges
    assert len(comp.edges) == 4


def test_decompose_requires_stable(opposed2):
    unstable = Matching.from_edges([Edge(0, 0)])
    stable = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    with pytest.raises(ValueError, match="not stable"):
        decompose(opposed2, unstable, stable)
    with pytest.raises(ValueError, match="not stable"):
        decompose(opposed2, stable, unstable)


def test_decompose_identical_pair(opposed2):
    m = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    assert decompose(opposed2, m, m).components == ()


def test_decompose_opposed_blocks(opposed4):
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(3, 3)])
    deco = decompose(opposed4, m1, m2)
    # each walk leaves the cycle's least a-node toward its smaller partner
    assert [c.edges for c in deco.components] == [
        (Edge(0, 0), Edge(1, 0), Edge(1, 1), Edge(0, 1)),
        (Edge(2, 2), Edge(3, 2), Edge(3, 3), Edge(2, 3)),
    ]
    for comp in deco.components:
        assert_closed_walk(comp)
    assert [c.a_prefers for c in deco.components] == [1, 2]


def test_decompose_is_deterministic(opposed4):
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(3, 3)])
    first = decompose(opposed4, m1, m2)
    again = decompose(opposed4, m1, m2)
    assert first.components == again.components


def test_stable_pairs_only_make_cycles():
    """Stable matchings cover the same nodes, so difference components
    never dangle: every node inside one has a partner on both sides."""
    stream = random_instances(4, 4, 0.6, seed=405)
    for inst in itertools.islice(stream, 40):
        stable = enumerate_stable(inst)
        for m1, m2 in itertools.combinations(stable, 2):
            deco = decompose(inst, m1, m2)
            for comp in deco.components:
                assert_closed_walk(comp)
            covered = {n for e in m1.edges for n in (NodeId(SIDE_A, e.a), NodeId(SIDE_B, e.b))}
            assert covered == {
                n for e in m2.edges for n in (NodeId(SIDE_A, e.a), NodeId(SIDE_B, e.b))
            }


def test_mixed_component_raises_with_certificate(monkeypatch):
    """Both a-nodes rank b1 first and both b-nodes rank a1 first, so in the
    difference of these two matchings a1 leans to the first and a2 to the
    second; with the input check skipped, the walk must not guess an
    orientation."""
    monkeypatch.setattr(lattice, "_require_stable", lambda *a: None)
    inst = Instance(2, 2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0)])
    with pytest.raises(UniformityError) as info:
        decompose(inst, m1, m2)
    certificate = info.value.certificate
    assert certificate["nodes"] == ["a1", "b1", "a2", "b2"]
    assert certificate["prefers"] == {"a1": "m1", "b1": "m1", "a2": "m2", "b2": "m2"}
    assert certificate["m1"] == ["a1 b1", "a2 b2"]
    assert certificate["m2"] == ["a1 b2", "a2 b1"]


def test_split_difference_needs_equal_cover(monkeypatch):
    # with the input check skipped, the walk refuses matchings that
    # cover different nodes
    monkeypatch.setattr(lattice, "_require_stable", lambda *a: None)
    inst = Instance(2, 2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
    one = Matching.from_edges([Edge(0, 0)])
    two = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    with pytest.raises(AssertionError, match="cover different nodes"):
        decompose(inst, one, two)
    # the same a-node, matched to different b-nodes
    other_b = Matching.from_edges([Edge(0, 1)])
    with pytest.raises(AssertionError, match="cover different nodes"):
        decompose(inst, one, other_b)


def test_meet_join_golden(opposed4):
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(3, 3)])
    meet, join = meet_join(opposed4, m1, m2)
    assert meet.edges == {Edge(0, 1), Edge(1, 0), Edge(2, 3), Edge(3, 2)}
    assert join.edges == {Edge(0, 0), Edge(1, 1), Edge(2, 2), Edge(3, 3)}
    assert is_stable(opposed4, meet) and is_stable(opposed4, join)


def test_meet_join_of_comparable_pair(opposed2):
    m1, m2 = pair_of(opposed2)
    meet, join = meet_join(opposed2, m1, m2)
    # every a-node leans the same way, so meet and join are the pair itself
    assert {meet, join} == {m1, m2}


def test_meet_join_requires_stable(opposed2):
    unstable = Matching.from_edges([Edge(0, 0)])
    stable = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    with pytest.raises(ValueError, match="not stable"):
        meet_join(opposed2, unstable, stable)
    with pytest.raises(ValueError, match="not stable"):
        meet_join(opposed2, stable, unstable)
    assert meet_join(opposed2, stable, stable) == (stable, stable)


def test_stable_checks_scan_no_blocking_pair(monkeypatch, opposed4):
    """Stable inputs and outputs pass the covering test alone; the scan
    runs once, for an unstable input, to name its blocking edges."""
    scans = []
    real = lattice.blocking_pairs
    monkeypatch.setattr(lattice, "blocking_pairs", lambda *a: scans.append(a) or real(*a))
    pairs = 0
    for inst in (opposed4, blocks(3)):
        for m1, m2 in itertools.product(enumerate_stable(inst), repeat=2):
            decompose(inst, m1, m2)
            meet_join(inst, m1, m2)
            pairs += 1
    assert pairs == 16 + 64 and scans == []
    stable = enumerate_stable(opposed4)[0]
    unstable = Matching.from_edges([Edge(0, 0)])
    for run in (decompose, meet_join):
        for args in ((unstable, stable), (stable, unstable)):
            with pytest.raises(ValueError, match="not stable"):
                run(opposed4, *args)
            assert scans == [(opposed4, unstable)]
            scans.clear()


def test_covering_scan_runs_once_per_edge_set(monkeypatch):
    """All 64 ordered pairs of an eight-matching lattice through
    ``decompose``, ``meet_join`` and ``adjacency_verdict`` read the covers
    once per distinct edge set: every meet and join is one of the eight,
    and a kept verdict skips the subgraph check and the scan."""
    inst = blocks(3)
    misses = []
    real = matchings._require_subgraph
    monkeypatch.setattr(
        matchings, "_require_subgraph", lambda i, m: misses.append(m.edges) or real(i, m)
    )
    stable = enumerate_stable(inst)
    for m1, m2 in itertools.product(stable, repeat=2):
        decompose(inst, m1, m2)
        meet_join(inst, m1, m2)
        if m1 == m2:
            with pytest.raises(ValueError, match="distinct"):
                adjacency_verdict(inst, m1, m2)
        else:
            adjacency_verdict(inst, m1, m2)
    assert len(stable) == 8 and len(misses) == 8
    assert set(misses) == {m.edges for m in stable} == inst._covering_edge_sets


def test_unstable_input_errors_are_pinned(opposed2):
    stable = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    cases = [
        ([Edge(0, 0)], "first", "['a2 b1', 'a2 b2']"),
        ([Edge(0, 1)], "first", "['a1 b1', 'a2 b1']"),
        ([], "second", "['a1 b1', 'a1 b2', 'a2 b1', 'a2 b2']"),
    ]
    unstable = Matching.from_edges([Edge(0, 0)])
    for run in (decompose, meet_join):
        for edges, label, blocked in cases:
            bad = Matching.from_edges(edges)
            args = (bad, stable) if label == "first" else (stable, bad)
            with pytest.raises(ValueError) as info:
                run(opposed2, *args)
            assert str(info.value) == f"{label} matching is not stable, blocked by {blocked}"
        # a non-edge lies in no cover set, so it is refused before the
        # covers are read; a stable matching plus one would pass them
        padded = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 2)])
        for stray, args in (
            (Edge(0, 2), (stable, Matching.from_edges([Edge(0, 2)]))),
            (Edge(2, 0), (Matching.from_edges([Edge(2, 0)]), unstable)),
            (Edge(2, 2), (stable, padded)),
            (Edge(2, 2), (padded, padded)),
        ):
            with pytest.raises(ValueError) as info:
                run(opposed2, *args)
            assert str(info.value) == f"matching uses non-edges: {[stray]}"


def test_blocked_meet_keeps_its_certificate(monkeypatch, opposed2):
    # with the input check skipped, an unstable pair gives a blocked meet
    monkeypatch.setattr(lattice, "_require_stable", lambda *a: None)
    unstable = Matching.from_edges([Edge(0, 0)])
    with pytest.raises(SwapStabilityError) as info:
        meet_join(opposed2, unstable, unstable)
    assert str(info.value) == "meet of two stable matchings is blocked"
    assert info.value.certificate == {
        "result": [["a1", "b1"]],
        "blocking": ["a2 b1", "a2 b2"],
        "m1": [["a1", "b1"]],
        "m2": [["a1", "b1"]],
    }


def test_stable_checks_raise_when_routes_disagree(monkeypatch, opposed2):
    """A blocking scan that misses the blocking pair of an unstable input
    or output is an error, never a result."""
    stable = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    unstable = Matching.from_edges([Edge(0, 0)])
    monkeypatch.setattr(lattice, "blocking_pairs", lambda instance, matching: [])
    for run in (decompose, meet_join):
        for args in ((unstable, stable), (stable, unstable)):
            with pytest.raises(RuntimeError, match="stability routines disagree"):
                run(opposed2, *args)
    monkeypatch.setattr(lattice, "_require_stable", lambda *a: None)
    with pytest.raises(RuntimeError, match="stability routines disagree"):
        meet_join(opposed2, unstable, unstable)


def test_meet_join_matches_component_flips():
    """Partner choice against flipping the difference cycles, and the
    comparability flag against the components' leanings, on every stable
    pair of the rich lattices and of a fixed-seed 4x4 sample."""
    rng = random.Random(410)
    sample = [draw(rng, 4, 4, 1.0) for _ in range(200)]
    pairs = mixed = 0
    for inst in [inst for _, inst in golden_instances()] + sample:
        limit = len(inst.edges)
        for m1, m2 in itertools.combinations(enumerate_stable(inst, max_edges=limit), 2):
            meet, join = meet_join(inst, m1, m2)
            deco = decompose(inst, m1, m2)
            assert (meet.edges, join.edges) == flip_meet_join(deco)
            leanings = {c.a_prefers for c in deco.components}
            uniform = adjacency_verdict(inst, m1, m2, max_edges=limit).uniform
            assert uniform == (len(leanings) < 2)
            pairs += 1
            mixed += not uniform
    assert (pairs, mixed) == (304, 12)


def test_meet_join_midpoint_identity():
    """Edge-wise, pair and meet/join carry the same total incidence."""
    stream = random_instances(4, 4, 0.7, seed=406)
    for inst in itertools.islice(stream, 40):
        stable = enumerate_stable(inst)
        for m1, m2 in itertools.combinations(stable, 2):
            meet, join = meet_join(inst, m1, m2)
            assert is_stable(inst, meet)
            assert is_stable(inst, join)
            for edge in inst.canonical_edges():
                lhs = (edge in m1.edges) + (edge in m2.edges)
                rhs = (edge in meet.edges) + (edge in join.edges)
                assert lhs == rhs


def test_meet_join_every_a_node_prefers_join():
    stream = random_instances(3, 4, 0.8, seed=407)
    for inst in itertools.islice(stream, 30):
        stable = enumerate_stable(inst)
        for m1, m2 in itertools.combinations(stable, 2):
            meet, join = meet_join(inst, m1, m2)
            tops = {e.a: e.b for e in join.edges}
            bottoms = {e.a: e.b for e in meet.edges}
            for i in range(inst.a_count):
                top, bottom = tops.get(i), bottoms.get(i)
                if top != bottom:
                    assert inst.a_rank[i][top] < inst.a_rank[i][bottom]


def test_enumerate_stable_golden(opposed2, single_edge):
    stable = enumerate_stable(opposed2)
    assert [m.sorted_edges() for m in stable] == [
        (Edge(0, 0), Edge(1, 1)),
        (Edge(0, 1), Edge(1, 0)),
    ]
    assert enumerate_stable(single_edge) == [Matching.from_edges([Edge(0, 0)])]


def test_enumerate_stable_bound():
    wide = Instance(
        5,
        4,
        tuple((0, 1, 2, 3) for _ in range(5)),
        tuple((0, 1, 2, 3, 4) for _ in range(4)),
    )
    assert len(wide.edges) == 20
    with pytest.raises(ValueError, match="limit"):
        enumerate_stable(wide)


def test_enumerate_stable_memo_follows_the_instance():
    first, second = blocks(2), latin(4)
    for inst in (first, second, first):
        assert as_pairs(enumerate_stable(inst)) == filter_stable(inst)


def test_enumerate_stable_memo_hands_out_copies():
    inst = blocks(2)
    expected = filter_stable(inst)
    enumerate_stable(inst).clear()
    mangled = enumerate_stable(inst)
    mangled.append(mangled[0])
    assert as_pairs(enumerate_stable(inst)) == expected


def test_enumerate_stable_memo_hit_still_checks_the_limit():
    inst = latin(4)
    assert len(enumerate_stable(inst, max_edges=16)) == 4
    with pytest.raises(LimitError):
        enumerate_stable(inst, max_edges=15)


def test_enumerate_stable_memo_holds_one_instance():
    # no other test enumerates this instance, so the memo keys on this object
    first = Instance(1, 7, ((6, 5, 4, 3, 2, 1, 0),), ((0,),) * 7)
    gone = weakref.ref(first)
    enumerate_stable(first)
    enumerate_stable(blocks(2))
    del first
    gc.collect()
    assert gone() is None


def test_enumerate_stable_memo_keeps_names_apart():
    plain = blocks(2)
    renamed = Instance(
        4, 4, plain.a_prefs, plain.b_prefs, ("w", "x", "y", "z"), ("p", "q", "r", "s")
    )
    assert renamed == plain
    rename = dict(zip(plain.a_names + plain.b_names, renamed.a_names + renamed.b_names))
    for m1, m2 in itertools.combinations(enumerate_stable(plain), 2):
        texts = [
            json.dumps(adjacency_verdict(inst, m1, m2).to_json(inst))
            for inst in (plain, renamed)
        ]
        assert re.sub(r"\b[ab]\d\b", lambda m: rename[m.group()], texts[0]) == texts[1]
        assert not re.search(r"\b[ab]\d\b", texts[1])


def test_enumerate_stable_matches_oracle():
    stream = random_instances(3, 4, 0.6, seed=408)
    for inst in itertools.islice(stream, 40):
        mine = {frozenset((e.a, e.b) for e in m.edges) for m in enumerate_stable(inst)}
        assert mine == set(stable_sets(inst))


def differential_corpus():
    rng = random.Random(409)
    for _ in range(2000):
        yield draw(rng, rng.randint(0, 5), rng.randint(0, 5), rng.uniform(0.3, 1.0))
    for index in rng.sample(range(6**6), 300):
        yield complete3(index)
    for _ in range(60):
        yield draw(rng, 5, 5, rng.uniform(0.6, 1.0))
    for k in (2, 3, 4):
        yield blocks(k)
    for n in (3, 4, 5):
        yield latin(n)


def test_enumerate_stable_matches_filter():
    """Break-marriage enumeration lists exactly what filtering every
    matching keeps, in the same order and each matching once."""
    checked = 0
    for inst in differential_corpus():
        mine = as_pairs(enumerate_stable(inst, max_edges=25))
        assert mine == filter_stable(inst), inst
        checked += 1
    assert checked == 2366


def test_enumerate_stable_closed_forms():
    """Families past the filter's reach whose stable sets are known."""
    six = blocks(6)
    assert len(six.edges) == 24
    halves = [
        (((2 * t, 2 * t), (2 * t + 1, 2 * t + 1)), ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t)))
        for t in range(6)
    ]
    expected = sorted(
        tuple(sorted(itertools.chain(*choice))) for choice in itertools.product(*halves)
    )
    assert len(expected) == 64
    found = as_pairs(enumerate_stable(six, max_edges=24))
    assert found == expected
    assert all(is_stable_pairs(six, m) for m in found)
    for n in (6, 7):
        inst = latin(n)
        assert len(inst.edges) == n * n
        diagonals = sorted(
            tuple(sorted((i, (i + s) % n) for i in range(n))) for s in range(n)
        )
        found = as_pairs(enumerate_stable(inst, max_edges=n * n))
        assert found == diagonals
        assert all(is_stable_pairs(inst, m) for m in found)
