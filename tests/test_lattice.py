import gc
import itertools
import json
import random
import re
import weakref

import pytest

from stablepoly.adjacency import adjacency_verdict
from stablepoly.instances import Edge, Instance, LimitError, random_instances
from stablepoly.lattice import decompose, enumerate_stable, meet_join, swap
from stablepoly.matchings import Matching, is_stable

from corpora import blocks, complete3, draw, latin
from oracles import filter_stable, is_stable_pairs, stable_sets


def as_pairs(stable):
    return [tuple((e.a, e.b) for e in m.sorted_edges()) for m in stable]


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
    assert comp.kind == "cycle"
    assert comp.a_prefers == 1
    assert comp.edge_set == best_for_a.edges | best_for_b.edges
    assert len(comp.edges) == 4
    assert deco.flip_to_favour_b == (0,)
    assert deco.flip_to_favour_a == ()


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
    assert [c.kind for c in deco.components] == ["cycle", "cycle"]
    assert [c.a_prefers for c in deco.components] == [1, 2]
    assert deco.flip_to_favour_b == (0,)
    assert deco.flip_to_favour_a == (1,)


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
            assert all(c.kind == "cycle" for c in deco.components)
            covered = {n for e in m1.edges for n in (e.a_node, e.b_node)}
            assert covered == {n for e in m2.edges for n in (e.a_node, e.b_node)}


def test_swap_roundtrip(opposed2):
    m1, m2 = pair_of(opposed2)
    deco = decompose(opposed2, m1, m2)
    assert swap(deco, []) == m1
    assert swap(deco, [0]) == m2
    with pytest.raises(ValueError):
        swap(deco, [1])
    with pytest.raises(ValueError):
        swap(deco, [0, 0])


def test_swap_mixes_components(opposed4):
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(3, 3)])
    deco = decompose(opposed4, m1, m2)
    flipped = swap(deco, [0])
    assert flipped.edges == {Edge(0, 1), Edge(1, 0), Edge(2, 3), Edge(3, 2)}
    both = swap(deco, [0, 1])
    assert both == m2


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
    # one component, so the swap lands back on the pair itself
    assert {meet, join} == {m1, m2}


def test_meet_join_midpoint_identity():
    """Edge-wise, pair and meet/join carry the same total incidence."""
    stream = random_instances(4, 4, 0.7, seed=406)
    for inst in itertools.islice(stream, 40):
        stable = enumerate_stable(inst)
        for m1, m2 in itertools.combinations(stable, 2):
            meet, join = meet_join(inst, m1, m2)
            assert is_stable(inst, meet, cross_check=True)
            assert is_stable(inst, join, cross_check=True)
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
            for i in range(inst.a_count):
                node = inst.node_by_name(inst.a_names[i])
                top, bottom = join.partner(node), meet.partner(node)
                if top != bottom:
                    assert inst.prefers(node, top, bottom)


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
        one_sided = rng.choice((0.0, 0.0, 0.2))
        yield draw(rng, rng.randint(0, 5), rng.randint(0, 5), rng.uniform(0.3, 1.0), one_sided)
    for index in rng.sample(range(6**6), 300):
        yield complete3(index)
    for _ in range(60):
        yield draw(rng, 5, 5, rng.uniform(0.6, 1.0), 0.0)
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
