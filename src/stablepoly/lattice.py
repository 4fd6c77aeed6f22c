"""The lattice of stable matchings: its elements and their differences.

``enumerate_stable`` lists the elements by walking the lattice down from
the a-optimal matching, one break-marriage step at a time; it never
builds an unstable matching. ``meet_join`` chooses partners: every
a-node takes the worse of its two in the meet and the better in the join.
The difference of two stable matchings splits into node-disjoint
alternating cycles; only ``decompose`` walks them, each a ``Component``
with fields ``nodes``, ``edges`` and ``a_prefers``. Inside one cycle every
a-side node favours the same input matching and every b-side node the
other one.

``decompose`` and ``meet_join`` need stable inputs, and ``meet_join``
checks its outputs too. Each of these checks is the covering test of
``matchings.covers_every_edge``, whose verdict on a stable matching is
computed once per instance and edge set: a stable pair run through both
functions reads the covers once per distinct matching among the pair,
its meet and its join. The blocking-pair scan runs only on a matching
that fails the test, to name the blocking edges in the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .instances import SIDE_A, SIDE_B, Edge, Instance, LimitError, NodeId
from .matchings import (
    Matching,
    blocking_pairs,
    covers_every_edge,
    gale_shapley,
    routes_disagree,
)


class UniformityError(RuntimeError):
    """A component mixing preference directions on one side.

    Stable inputs cannot produce this; raising it loudly with the full
    certificate beats silently mislabelling the component.
    """

    def __init__(self, message: str, certificate: dict):
        super().__init__(message)
        self.certificate = certificate


class SwapStabilityError(RuntimeError):
    """A meet or join of two stable matchings that is blocked."""

    def __init__(self, message: str, certificate: dict):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class Component:
    """One alternating cycle of the difference.

    ``nodes`` is the walk: it starts at the cycle's least a-node, goes to
    the smaller of that node's two partners and then alternates between
    the two matchings. ``edges[k]`` joins ``nodes[k]`` to the next node,
    the last edge closing the cycle. ``a_prefers`` is the matching that
    every a-side node of the component strictly prefers (1 or 2).
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]
    a_prefers: int

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class Decomposition:
    m1: Matching
    m2: Matching
    components: tuple[Component, ...]


def _component_orientation(
    instance: Instance, m1: Matching, m2: Matching, nodes: list[NodeId], leanings: list[int]
) -> int:
    """Which matching the a-side of one cycle prefers, 1 or 2.

    ``leanings[k]`` is the matching whose partner ``nodes[k]`` strictly
    prefers, and the walk alternates a-node, b-node. The leaning must be
    uniform per side, the b-side leaning the other way; a mixed component
    is reported with a certificate instead of being guessed at.
    """
    verdict = leanings[0]
    if leanings != [verdict, 3 - verdict] * (len(leanings) // 2):
        raise UniformityError(
            "difference component without a uniform preference direction",
            {
                "nodes": [instance.node_name(n) for n in nodes],
                "prefers": {instance.node_name(n): f"m{x}" for n, x in zip(nodes, leanings)},
                "m1": [instance.edge_name(e) for e in m1.sorted_edges()],
                "m2": [instance.edge_name(e) for e in m2.sorted_edges()],
            },
        )
    return verdict


def _blocked_by(instance: Instance, m: Matching) -> list[Edge]:
    """No edge when ``m`` passes the covering test; otherwise its blocking
    pairs, scanned only to explain the failure. A scan that finds none
    raises ``RuntimeError``, as ``is_stable`` does when the routes
    disagree."""
    if covers_every_edge(instance, m):
        return []
    bad = blocking_pairs(instance, m)
    if not bad:
        raise routes_disagree(m, False, True)
    return bad


def _require_stable(instance: Instance, m1: Matching, m2: Matching) -> None:
    for label, m in (("first", m1), ("second", m2)):
        bad = _blocked_by(instance, m)
        if bad:
            raise ValueError(
                f"{label} matching is not stable, blocked by "
                f"{[instance.edge_name(e) for e in bad]}"
            )


def partner_maps(m1: Matching, m2: Matching) -> tuple[dict[int, int], dict[int, int]]:
    """The a→b partner maps of two stable matchings, which cover the same
    nodes (Gale and Sotomayor 1985); inputs that do not raise
    ``AssertionError``."""
    ab1, ab2 = ({e.a: e.b for e in m.edges} for m in (m1, m2))
    if ab1.keys() != ab2.keys() or set(ab1.values()) != set(ab2.values()):
        raise AssertionError("two stable matchings cover different nodes")
    return ab1, ab2


def decompose(instance: Instance, m1: Matching, m2: Matching) -> Decomposition:
    """Split the symmetric difference into oriented alternating cycles.

    Both inputs must be stable; the orientation claim does not survive
    unstable inputs and the caller is told so via ValueError, which lists
    the blocking edges. Stability is the covering test; the blocking-pair
    scan runs only for an input that fails it. Two stable matchings
    cover the same nodes (``partner_maps``), so their difference is a
    union of cycles; a mixed component raises ``UniformityError``.
    """
    _require_stable(instance, m1, m2)
    ab1, ab2 = partner_maps(m1, m2)
    ba1, ba2 = ({b: a for a, b in ab.items()} for ab in (ab1, ab2))
    a_rank, b_rank = instance.a_rank, instance.b_rank
    walked: set[int] = set()
    components: list[Component] = []
    for start in sorted(ab1):
        if start in walked or ab1[start] == ab2[start]:
            continue
        # from the least a-node toward its smaller partner, then alternate
        out, back = (ab1, ba2) if ab1[start] < ab2[start] else (ab2, ba1)
        nodes: list[NodeId] = []
        edges: list[Edge] = []
        leanings: list[int] = []
        a = start
        while a not in walked:
            walked.add(a)
            b = out[a]
            nodes += (NodeId(SIDE_A, a), NodeId(SIDE_B, b))
            edges += (Edge(a, b), Edge(back[b], b))
            leanings += (
                1 if a_rank[a][ab1[a]] < a_rank[a][ab2[a]] else 2,
                1 if b_rank[b][ba1[b]] < b_rank[b][ba2[b]] else 2,
            )
            a = back[b]
        orientation = _component_orientation(instance, m1, m2, nodes, leanings)
        components.append(Component(tuple(nodes), tuple(edges), orientation))
    return Decomposition(m1, m2, tuple(components))


def meet_join(instance: Instance, m1: Matching, m2: Matching) -> tuple[Matching, Matching]:
    """The b-favoured and a-favoured combinations of two stable matchings.

    Each a-node takes the worse of its two partners in the meet and the
    better in the join (Conway's lemma, Knuth 1976); ``Matching`` refuses
    a b-node that two a-nodes pick. Both are stable, and edge by edge the
    pair (meet, join) uses exactly the edges of (m1, m2) with the same
    multiplicity. Both inputs must be stable (``ValueError`` otherwise),
    and a blocked meet or join raises ``SwapStabilityError``. All four
    checks are the covering test; the blocking-pair scan runs only on a
    matching that fails it, to list the blocking edges.
    """
    _require_stable(instance, m1, m2)
    ab1, ab2 = partner_maps(m1, m2)
    a_rank = instance.a_rank
    worse, better = [], []
    for a, b1 in ab1.items():
        b2 = ab2[a]
        if a_rank[a][b1] < a_rank[a][b2]:
            b1, b2 = b2, b1
        worse.append(Edge(a, b1))
        better.append(Edge(a, b2))
    meet, join = Matching(frozenset(worse)), Matching(frozenset(better))
    for label, m in (("meet", meet), ("join", join)):
        bad = _blocked_by(instance, m)
        if bad:
            raise SwapStabilityError(
                f"{label} of two stable matchings is blocked",
                {
                    "result": m.to_pairs(instance),
                    "blocking": [instance.edge_name(e) for e in bad],
                    "m1": m1.to_pairs(instance),
                    "m2": m2.to_pairs(instance),
                },
            )
    return meet, join


# default edge limit of stable enumeration
MAX_STABLE_EDGES = 16


def enumerate_stable(instance: Instance, max_edges: int = MAX_STABLE_EDGES) -> list[Matching]:
    """All stable matchings, by break-marriage from the a-optimal one.

    McVitie and Wilson's enumeration (CACM 1971; Gusfield and Irving
    1989, ch. 3) starts from deferred acceptance with side A proposing.
    From each matching found it breaks, in turn, the marriage of every
    matched a-node ``i`` at or after the index it was reached by: the
    partner ``w`` now accepts only a proposer it ranks above ``i``, and
    ``i`` and whoever is displaced propose further down their lists. The
    chain yields the next stable matching when ``w`` accepts, and fails
    when an a-node runs out of its list, when a proposal reaches a b-node
    that is unmatched (it stays unmatched in every stable matching, Gale
    and Sotomayor 1985), or when an a-node before ``i`` would be
    displaced. Each stable matching is found exactly once, and no
    unstable matching is ever built.

    The lattice of the most recent instance is kept, so asking again for
    an equal instance (names aside) repeats no walk; each call returns a
    fresh list. Refuses instances with more than ``max_edges`` edges
    (``LimitError``) on every call, before any work or memo lookup. Cost
    is no longer the reason, since each output takes O(|E|) proposals;
    the limit stays because the CLI's ``--max-edges`` default, its exit
    codes and the tests rely on it.
    """
    if len(instance.edges) > max_edges:
        raise LimitError(
            f"instance has {len(instance.edges)} edges, limit is {max_edges}"
        )
    return list(_stable_lattice(instance))


@lru_cache(maxsize=1)
def _stable_lattice(instance: Instance) -> tuple[Matching, ...]:
    """The break-marriage walk of ``enumerate_stable``, sorted by edges."""
    lists, a_rank, b_rank = instance.a_prefs, instance.a_rank, instance.b_rank
    start = gale_shapley(instance, SIDE_A)
    pos: list[int | None] = [None] * instance.a_count
    holder: list[int | None] = [None] * instance.b_count
    for edge in start.edges:
        pos[edge.a] = a_rank[edge.a][edge.b]
        holder[edge.b] = edge.a
    found: list[Matching] = []

    def break_marriage(
        pos: list[int | None], holder: list[int | None], i: int
    ) -> tuple[list[int | None], list[int | None]] | None:
        pos, holder = pos[:], holder[:]
        w = lists[i][pos[i]]
        bar = b_rank[w][i]
        proposer = i
        while True:
            pos[proposer] += 1
            if pos[proposer] == len(lists[proposer]):
                return None
            b = lists[proposer][pos[proposer]]
            rank = b_rank[b][proposer]
            if b == w:
                if rank < bar:
                    holder[w] = proposer
                    return pos, holder
                continue
            held = holder[b]
            if held is None:
                return None
            if rank < b_rank[b][held]:
                if held < i:
                    return None
                holder[b] = proposer
                proposer = held

    def walk(pos: list[int | None], holder: list[int | None], k: int) -> None:
        found.append(
            Matching(frozenset(Edge(a, lists[a][p]) for a, p in enumerate(pos) if p is not None))
        )
        for i in range(k, instance.a_count):
            if pos[i] is not None:
                broken = break_marriage(pos, holder, i)
                if broken is not None:
                    walk(*broken, i)

    walk(pos, holder, 0)
    found.sort(key=lambda m: m.sorted_edges())
    return tuple(found)
