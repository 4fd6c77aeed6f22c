import itertools
import random

import pytest

from stablepoly import matchings
from stablepoly.instances import (
    Edge,
    Instance,
    SIDE_A,
    SIDE_B,
    exhaustive_complete,
    random_instances,
)
from stablepoly.lattice import decompose
from stablepoly.matchings import (
    Matching,
    blocking_pairs,
    gale_shapley,
    is_stable,
    matchings_iter,
)

from corpora import complete3, draw
from oracles import blocking_pairs_of, is_stable_pairs, stable_sets


def test_matching_rejects_shared_node():
    with pytest.raises(ValueError):
        Matching.from_edges([Edge(0, 0), Edge(0, 1)])
    with pytest.raises(ValueError):
        Matching.from_edges([Edge(0, 1), Edge(2, 1)])
    # the two sides are checked apart: a-node 0 and b-node 0 are different nodes
    assert len(Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2)])) == 3


@pytest.mark.parametrize(
    "edges",
    [
        [Edge(1, 0), Edge(0, 2), Edge(1, 3)],  # a-node 1 twice, b-nodes distinct
        [Edge(0, 1), Edge(2, 0), Edge(3, 1)],  # b-node 1 twice, a-nodes distinct
    ],
    ids=["a-node", "b-node"],
)
def test_matching_rejects_one_shared_side(edges):
    with pytest.raises(ValueError, match="share a node"):
        Matching.from_edges(edges)


def test_from_pairs_validates(opposed2):
    m = Matching.from_pairs(opposed2, [["a1", "b1"], ["b2", "a2"]])
    assert m.edges == frozenset({Edge(0, 0), Edge(1, 1)})
    with pytest.raises(ValueError):
        Matching.from_pairs(opposed2, [["a1"]])
    with pytest.raises(ValueError):
        Matching.from_pairs(opposed2, [["a1", "a2"]])
    with pytest.raises(ValueError, match="unknown node"):
        Matching.from_pairs(opposed2, [["a1", "b9"]])
    # the same edge twice, in either order, is not merged into one
    for second in (["a1", "b1"], ["b1", "a1"]):
        with pytest.raises(ValueError, match="is repeated") as info:
            Matching.from_pairs(opposed2, [["a1", "b1"], second, ["a2", "b2"]])
        assert repr(second) in str(info.value)
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


def test_sorted_edges_pairs_roundtrip(opposed2):
    m = Matching.from_edges([Edge(0, 0)])
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
    assert is_stable(opposed2, best_for_a)
    assert is_stable(opposed2, best_for_b)
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
    # a1 lists an index past b2 and one below b1, b2 lists a1 one-sidedly:
    # none of these listings is an edge, so the table never reaches a scan
    with pytest.raises(ValueError) as refused:
        Instance(2, 2, ((-1, 5, 0), (1,)), ((0,), (1, 0)))
    assert str(refused.value) == (
        "unknown neighbour index -1 in prefs of a1; "
        "unknown neighbour index 5 in prefs of a1; "
        "edge/pref mismatch: b2 lists a1 but a1 does not list b2"
    )


def test_blocking_pairs_match_oracle():
    """The scan that stops at each a-node's partner finds the same edges
    as a scan of every edge, on every matching of the instance, stable or
    not and with unmatched nodes."""
    rng = random.Random(409)
    complete = [complete3(k) for k in rng.sample(range(6**6), 120)]
    drawn = [draw(rng, 4, 4, 0.8) for _ in range(40)]
    plain = list(itertools.islice(random_instances(4, 4, 0.7, seed=410), 20))
    scanned = 0
    for inst in complete + drawn + plain:
        for m in matchings_iter(inst):
            pairs = [(e.a, e.b) for e in m.edges]
            assert blocking_pairs(inst, m) == [Edge(*p) for p in blocking_pairs_of(inst, pairs)]
            scanned += 1
    assert scanned > 8000


def test_stability_routes_agree_everywhere():
    """The covering test, the blocking-pair scan, and the oracle coincide,
    on 3x3 and on 4x4 draws."""
    rng = random.Random(402)
    drawn = (draw(rng, 4, 4, 0.8) for _ in range(30))
    stream = random_instances(3, 3, 0.7, seed=401)
    for inst in itertools.chain(itertools.islice(stream, 40), drawn):
        for m in matchings_iter(inst):
            verdict = is_stable(inst, m)
            pairs = {(e.a, e.b) for e in m.edges}
            assert verdict == is_stable_pairs(inst, pairs)


def test_repeated_listing_is_refused():
    """A list that names b2 twice is no strict order over edges. Read at
    one rank in the covers and at another in deferred acceptance, such a
    list once made ``gale_shapley`` return a matching that ``is_stable``
    called unstable; the table is refused instead, naming the duplicate."""
    with pytest.raises(ValueError) as refused:
        Instance(1, 2, ((1, 0, 1),), ((0,), (0,)))
    assert str(refused.value) == "not a strict order: duplicate b2 in prefs of a1"
    rng = random.Random(411)
    for _ in range(200):
        drawn = draw(rng, 3, 3, 0.8)
        a_prefs = tuple(row + row[:1] for row in drawn.a_prefs)
        with pytest.raises(ValueError) as refused:
            Instance(3, 3, a_prefs, drawn.b_prefs)
        assert str(refused.value) == "; ".join(
            f"not a strict order: duplicate b{row[0] + 1} in prefs of a{i + 1}"
            for i, row in enumerate(drawn.a_prefs)
            if row
        )


def test_is_stable_raises_when_routes_disagree(opposed2, monkeypatch):
    """A blocking scan that misses the blocking pair of an unstable
    matching makes the covering test's verdict an error, not an answer."""
    unstable = Matching.from_edges([Edge(0, 0)])
    assert blocking_pairs(opposed2, unstable)
    monkeypatch.setattr(matchings, "blocking_pairs", lambda instance, matching: [])
    with pytest.raises(RuntimeError, match="stability routines disagree"):
        is_stable(opposed2, unstable)


def test_gale_shapley_golden(opposed2):
    assert gale_shapley(opposed2).edges == {Edge(0, 0), Edge(1, 1)}
    assert gale_shapley(opposed2, SIDE_B).edges == {Edge(0, 1), Edge(1, 0)}
    with pytest.raises(ValueError):
        gale_shapley(opposed2, "c")


def test_gale_shapley_always_stable():
    stream = random_instances(4, 3, 0.6, seed=402)
    for inst in itertools.islice(stream, 60):
        for side in (SIDE_A, SIDE_B):
            assert is_stable(inst, gale_shapley(inst, side))


def test_gale_shapley_proposer_optimal():
    """Every proposer weakly prefers the deferred-acceptance outcome to
    any other stable matching's assignment."""
    stream = random_instances(3, 3, 0.8, seed=403)
    for inst in itertools.islice(stream, 25):
        best = {e.a: e.b for e in gale_shapley(inst, SIDE_A).edges}
        for pairs in stable_sets(inst):
            rival = dict(pairs)
            for i in range(inst.a_count):
                got, other = best.get(i), rival.get(i)
                if got != other:
                    assert inst.a_rank[i][got] < inst.a_rank[i][other]


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


def test_covering_memo_keeps_no_unstable_matching(opposed2):
    """An unstable edge set is never kept, so it is checked, and refused
    with the same message, on every call."""
    unstable = Matching.from_edges([Edge(0, 0)])
    messages = []
    for _ in range(3):
        assert not matchings.covers_every_edge(opposed2, unstable)
        assert not is_stable(opposed2, unstable)
        with pytest.raises(ValueError) as refused:
            decompose(opposed2, unstable, unstable)
        messages.append(str(refused.value))
        assert unstable.edges not in opposed2._covering_edge_sets
    assert messages == ["first matching is not stable, blocked by ['a2 b1', 'a2 b2']"] * 3


def test_covering_memo_still_refuses_non_edges(opposed2):
    """Once a stable edge set is kept, the same edges plus a non-edge are
    still refused, and never kept."""
    stable = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    assert matchings.covers_every_edge(opposed2, stable)
    assert opposed2._covering_edge_sets == {stable.edges}
    padded = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 2)])
    for check in (matchings.covers_every_edge, is_stable, matchings.covers_every_edge):
        with pytest.raises(ValueError, match=r"matching uses non-edges: \[Edge\(a=2, b=2\)\]"):
            check(opposed2, padded)
    assert opposed2._covering_edge_sets == {stable.edges}


def test_covering_memo_hit_still_cross_checks(opposed2, monkeypatch):
    """A kept covering verdict is still checked against the blocking-pair
    scan by ``is_stable``."""
    stable = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    assert is_stable(opposed2, stable)
    assert stable.edges in opposed2._covering_edge_sets
    monkeypatch.setattr(matchings, "blocking_pairs", lambda instance, matching: [Edge(0, 1)])
    with pytest.raises(RuntimeError, match="stability routines disagree"):
        is_stable(opposed2, Matching.from_edges([Edge(1, 1), Edge(0, 0)]))


def test_covering_memo_gives_the_same_verdicts():
    """On every matching of a complete 4x4 instance, a second pass (all
    stable edge sets kept) gives the verdicts of the first and of the
    blocking-pair scan, and only the stable edge sets are kept."""
    inst = draw(random.Random(412), 4, 4, 1.0)
    every = list(matchings_iter(inst))
    assert len(inst.edges) == 16 and len(every) == 209
    first = [matchings.covers_every_edge(inst, m) for m in every]
    second = [matchings.covers_every_edge(inst, m) for m in every]
    assert first == second == [not blocking_pairs(inst, m) for m in every]
    assert [is_stable(inst, m) for m in every] == first
    assert inst._covering_edge_sets == {m.edges for m, ok in zip(every, first) if ok}
