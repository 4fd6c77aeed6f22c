import itertools
from fractions import Fraction

import pytest

from stablepoly.adjacency import (
    AdjacencyVerdict,
    Witness,
    adjacency_verdict,
    convex_decompose,
    nonadjacency_witness,
    removed_edge_witness,
    uniformly_oriented,
)
from stablepoly.instances import Edge, instance_from_json, random_instances, remove_edge
from stablepoly.lattice import enumerate_stable
from stablepoly.matchings import Matching

F = Fraction
HALF = F(1, 2)


def opposed4_pair(instance):
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(3, 3)])
    return m1, m2


def test_uniformly_oriented(opposed2, opposed4):
    m1, m2 = enumerate_stable(opposed2)
    assert uniformly_oriented(opposed2, m1, m2)
    n1, n2 = opposed4_pair(opposed4)
    assert not uniformly_oriented(opposed4, n1, n2)


def test_witness_scan_is_empty_for_stable_pairs(opposed4):
    """Two stable matchings never leave an in-graph edge that one beats
    twice and the other never: the weak matching would have to contain
    the edge, putting both endpoints in one component that leans the
    strong way. The scan checks the vacuity instead of assuming it."""
    m1, m2 = opposed4_pair(opposed4)
    assert nonadjacency_witness(opposed4, m1, m2) is None
    stream = random_instances(4, 4, 0.7, seed=412)
    for inst in itertools.islice(stream, 30):
        stable = enumerate_stable(inst)
        for p, q in itertools.combinations(stable, 2):
            assert nonadjacency_witness(inst, p, q) is None


def test_witness_scan_requires_stable(opposed2):
    stable = Matching.from_edges([Edge(0, 0), Edge(1, 1)])
    unstable = Matching.from_edges([Edge(0, 0)])
    with pytest.raises(ValueError, match="not stable"):
        nonadjacency_witness(opposed2, stable, unstable)


def test_removed_edge_witness_fixture(witness_fixture):
    host = instance_from_json(witness_fixture["host"])
    a_name, b_name = witness_fixture["removed_edge"].split()
    edge = Edge(host.node_by_name(a_name).index, host.node_by_name(b_name).index)
    reduced = remove_edge(host, edge)
    m1 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m1"]])
    m2 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m2"]])

    got = removed_edge_witness(host, edge, m1, m2)
    assert got == Witness(edge, witness_fixture["dominant"])
    # the certificate is sound: the pair is indeed not adjacent
    assert not adjacency_verdict(reduced, m1, m2).adjacent
    # and the host ranks are essential: inside the reduced instance the
    # same scan finds nothing
    assert nonadjacency_witness(reduced, m1, m2) is None


def test_removed_edge_witness_role_swap(witness_fixture):
    host = instance_from_json(witness_fixture["host"])
    edge = Edge(1, 2)
    reduced = remove_edge(host, edge)
    m1 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m1"]])
    m2 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m2"]])
    assert removed_edge_witness(host, edge, m2, m1) == Witness(edge, 2)


def test_removed_edge_witness_misses(opposed4, witness_fixture):
    host = instance_from_json(witness_fixture["host"])
    edge = Edge(1, 2)
    reduced = remove_edge(host, edge)
    m1 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m1"]])
    m2 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m2"]])
    # removing some other edge gives no certificate for this pair: both
    # matchings still use edges the scan would need them to avoid
    join = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 2), Edge(3, 3)])
    meet = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 3), Edge(3, 2)])
    assert removed_edge_witness(host, edge, m1, join) is None
    assert removed_edge_witness(host, edge, meet, m2) is None


def test_removed_edge_witness_validates(opposed4, witness_fixture):
    host = instance_from_json(witness_fixture["host"])
    edge = Edge(1, 2)
    reduced = remove_edge(host, edge)
    m1 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m1"]])
    m2 = Matching.from_pairs(reduced, [p.split() for p in witness_fixture["m2"]])
    with pytest.raises(ValueError, match="not an edge"):
        removed_edge_witness(host, Edge(0, 2), m1, m2)
    # a matching that still uses the removed edge cannot be judged
    uses_it = Matching.from_edges([Edge(1, 2), Edge(0, 0), Edge(2, 3)])
    with pytest.raises(ValueError):
        removed_edge_witness(host, edge, uses_it, m2)


def test_convex_decompose_midpoint(opposed2):
    m1, m2 = enumerate_stable(opposed2)
    columns = opposed2.canonical_edges()
    mid = tuple(
        HALF * ((e in m1.edges) + (e in m2.edges)) for e in columns
    )
    weights = convex_decompose(opposed2, mid)
    assert weights == {m1: HALF, m2: HALF}
    # banning either endpoint leaves nothing: the pair is adjacent
    assert convex_decompose(opposed2, mid, forbidden=[m1]) is None
    assert convex_decompose(opposed2, mid, forbidden=[m2]) is None


def test_convex_decompose_rival_route(opposed4):
    m1, m2 = opposed4_pair(opposed4)
    columns = opposed4.canonical_edges()
    mid = tuple(
        HALF * ((e in m1.edges) + (e in m2.edges)) for e in columns
    )
    other = convex_decompose(opposed4, mid, forbidden=[m1, m2])
    assert other is not None
    assert sum(other.values()) == 1
    assert set(other) == set(enumerate_stable(opposed4)) - {m1, m2}
    assert all(w == HALF for w in other.values())


def test_convex_decompose_validates(opposed2):
    with pytest.raises(ValueError):
        convex_decompose(opposed2, (HALF,))
    m1, m2 = enumerate_stable(opposed2)
    point = opposed2.canonical_edges()
    # a vertex point with every matching banned has no decomposition
    vec = tuple(F(1) if e in m1.edges else F(0) for e in point)
    assert convex_decompose(opposed2, vec, forbidden=[m1, m2]) is None


def test_are_adjacent(opposed2, opposed4):
    m1, m2 = enumerate_stable(opposed2)
    assert adjacency_verdict(opposed2, m1, m2).adjacent
    n1, n2 = opposed4_pair(opposed4)
    assert not adjacency_verdict(opposed4, n1, n2).adjacent
    with pytest.raises(ValueError, match="distinct"):
        adjacency_verdict(opposed2, m1, m1)
    unstable = Matching.from_edges([Edge(0, 0)])
    with pytest.raises(ValueError, match="stable"):
        adjacency_verdict(opposed2, m1, unstable)


def test_adjacent_pairs_on_lattice_neighbours(opposed4):
    """Flipping a single difference component of the four-matching square
    moves to an adjacent vertex; the diagonal is the non-edge."""
    stable = enumerate_stable(opposed4)
    m1, m2 = opposed4_pair(opposed4)
    join = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 2), Edge(3, 3)])
    meet = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 3), Edge(3, 2)])
    assert set(stable) == {m1, m2, meet, join}
    assert adjacency_verdict(opposed4, m1, join).adjacent
    assert adjacency_verdict(opposed4, m1, meet).adjacent
    assert adjacency_verdict(opposed4, m2, join).adjacent
    assert adjacency_verdict(opposed4, m2, meet).adjacent
    assert not adjacency_verdict(opposed4, meet, join).adjacent


def test_verdict_golden(opposed2, opposed4):
    m1, m2 = enumerate_stable(opposed2)
    verdict = adjacency_verdict(opposed2, m1, m2)
    assert verdict.adjacent and verdict.uniform
    assert verdict.witness is None
    assert verdict.maxima == ()
    assert verdict.alternative is None

    n1, n2 = opposed4_pair(opposed4)
    verdict = adjacency_verdict(opposed4, n1, n2)
    assert not verdict.adjacent and not verdict.uniform
    assert verdict.witness is None
    assert len(verdict.maxima) == 2
    assert all(v == HALF for _, v in verdict.maxima)
    assert verdict.alternative is not None

    doc = verdict.to_json(opposed4)
    assert doc["adjacent"] is False
    assert doc["uniformly_oriented"] is False
    assert doc["witness"] is None
    assert set(doc["rival_maxima"].values()) == {"1/2"}


def test_verdict_rejects_inconsistent_routes():
    with pytest.raises(AssertionError):
        AdjacencyVerdict(
            adjacent=True,
            uniform=False,
            witness=None,
            maxima=(),
            alternative=None,
        )
    with pytest.raises(AssertionError):
        AdjacencyVerdict(
            adjacent=True,
            uniform=True,
            witness=Witness(Edge(0, 0), 1),
            maxima=(),
            alternative=None,
        )


def test_adjacency_implies_uniformity_everywhere():
    # dense 5x5 draws: random preference tables only rarely produce
    # incomparable stable pairs, and those are the interesting ones here
    stream = random_instances(5, 5, 1.0, seed=413)
    seen_nonuniform = 0
    for inst in itertools.islice(stream, 25):
        stable = enumerate_stable(inst, max_edges=25)
        for p, q in itertools.combinations(stable, 2):
            verdict = adjacency_verdict(inst, p, q, max_edges=25)
            if verdict.adjacent:
                assert verdict.uniform
            if not verdict.uniform:
                seen_nonuniform += 1
                assert not verdict.adjacent
                assert verdict.alternative is not None
    assert seen_nonuniform >= 1
