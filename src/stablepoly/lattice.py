"""The lattice of stable matchings: its elements and their differences.

``enumerate_stable`` lists the elements by walking the lattice down from
the a-optimal matching, one break-marriage step at a time; it never
builds an unstable matching. The difference of two stable matchings
splits into node-disjoint alternating paths and cycles. Inside one
component every a-side node favours the same input matching and every
b-side node the other one; flipping all components with a given leaning
produces the two lattice neighbours of the input pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .instances import SIDE_A, Edge, Instance, LimitError, NodeId
from .matchings import Matching, blocking_pairs, gale_shapley


class UniformityError(RuntimeError):
    """A component mixing preference directions on one side.

    Stable inputs cannot produce this; raising it loudly with the full
    certificate beats silently mislabelling the component.
    """

    def __init__(self, message: str, certificate: dict):
        super().__init__(message)
        self.certificate = certificate


class SwapStabilityError(RuntimeError):
    """A component swap that was guaranteed stable but is not."""

    def __init__(self, message: str, certificate: dict):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class Component:
    """One alternating path or cycle of the difference.

    ``edges`` follows the walk; ``sources[k]`` records which matching
    contributed ``edges[k]`` (1 or 2). ``a_prefers`` is the matching that
    every a-side node of the component strictly prefers.
    """

    kind: str
    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]
    sources: tuple[int, ...]
    a_prefers: int

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class Decomposition:
    m1: Matching
    m2: Matching
    components: tuple[Component, ...]

    @property
    def flip_to_favour_b(self) -> tuple[int, ...]:
        """Indices of components whose a-side prefers the first matching."""
        return tuple(i for i, c in enumerate(self.components) if c.a_prefers == 1)

    @property
    def flip_to_favour_a(self) -> tuple[int, ...]:
        """Indices of components whose a-side prefers the second matching."""
        return tuple(i for i, c in enumerate(self.components) if c.a_prefers == 2)


def _component_orientation(
    instance: Instance, m1: Matching, m2: Matching, nodes: Sequence[NodeId]
) -> int:
    """Which matching the a-side of one component prefers, 1 or 2.

    Every node of a component has different partners in the two matchings
    (an agreed edge never enters the difference), so each node has a
    strict leaning once being unmatched counts as worst. The leaning must
    be uniform per side; a mixed component is reported with a certificate
    instead of being guessed at.
    """
    leanings: dict[NodeId, int] = {}
    for node in nodes:
        p1 = m1.partner(node)
        p2 = m2.partner(node)
        if p1 == p2:
            raise AssertionError(f"{node} has equal partners inside a difference component")
        leanings[node] = 1 if instance.prefers(node, p1, p2) else 2
    a_leanings = {leanings[n] for n in nodes if n.side == SIDE_A}
    b_leanings = {leanings[n] for n in nodes if n.side != SIDE_A}
    verdict = next(iter(a_leanings)) if a_leanings else (3 - next(iter(b_leanings)))
    if a_leanings | {3 - x for x in b_leanings} != {verdict}:
        raise UniformityError(
            "difference component without a uniform preference direction",
            {
                "nodes": [instance.node_name(n) for n in nodes],
                "prefers": {instance.node_name(n): f"m{leanings[n]}" for n in nodes},
                "m1": [instance.edge_name(e) for e in m1.sorted_edges()],
                "m2": [instance.edge_name(e) for e in m2.sorted_edges()],
            },
        )
    return verdict


def decompose(instance: Instance, m1: Matching, m2: Matching) -> Decomposition:
    """Split the symmetric difference into oriented paths and cycles.

    Both inputs must be stable; the orientation claim does not survive
    unstable inputs and the caller is told so via ValueError.
    """
    for label, m in (("first", m1), ("second", m2)):
        bad = blocking_pairs(instance, m)
        if bad:
            raise ValueError(
                f"{label} matching is not stable, blocked by "
                f"{[instance.edge_name(e) for e in bad]}"
            )
    diff: dict[NodeId, list[tuple[Edge, int]]] = {}
    for source, m in ((1, m1), (2, m2)):
        for edge in m.edges - (m1.edges & m2.edges):
            diff.setdefault(edge.a_node, []).append((edge, source))
            diff.setdefault(edge.b_node, []).append((edge, source))

    visited_edges: set[Edge] = set()
    components: list[Component] = []

    def walk(start: NodeId) -> Component:
        nodes = [start]
        edges: list[Edge] = []
        sources: list[int] = []
        current = start
        while True:
            options = [
                (e, s) for e, s in diff[current] if e not in visited_edges
            ]
            if not options:
                break
            # Prefer the smaller far endpoint so the walk is reproducible.
            edge, source = min(options, key=lambda es: es[0].other(current))
            visited_edges.add(edge)
            edges.append(edge)
            sources.append(source)
            current = edge.other(current)
            if current == start:
                return Component(
                    "cycle",
                    tuple(nodes),
                    tuple(edges),
                    tuple(sources),
                    _component_orientation(instance, m1, m2, nodes),
                )
            nodes.append(current)
        return Component(
            "path",
            tuple(nodes),
            tuple(edges),
            tuple(sources),
            _component_orientation(instance, m1, m2, nodes),
        )

    endpoints = sorted(n for n, incident in diff.items() if len(incident) == 1)
    for node in endpoints:
        if any(e not in visited_edges for e, _ in diff[node]):
            components.append(walk(node))
    for node in sorted(diff):
        if any(e not in visited_edges for e, _ in diff[node]):
            components.append(walk(node))
    components.sort(key=lambda c: min(c.nodes))
    return Decomposition(m1, m2, tuple(components))


def swap(decomposition: Decomposition, component_indices: Iterable[int]) -> Matching:
    """Replace the first matching's edges by the second's on the chosen
    components. The result is always a matching; it is guaranteed stable
    only for the two canonical index sets of the decomposition."""
    chosen = list(component_indices)
    if len(set(chosen)) != len(chosen):
        raise ValueError("duplicate component index")
    flipped: set[Edge] = set()
    for index in chosen:
        if not 0 <= index < len(decomposition.components):
            raise ValueError(f"component index {index} out of range")
        flipped ^= decomposition.components[index].edge_set
    return Matching(decomposition.m1.edges ^ frozenset(flipped))


def meet_join(instance: Instance, m1: Matching, m2: Matching) -> tuple[Matching, Matching]:
    """The b-favoured and a-favoured combinations of two stable matchings.

    The meet gives every b-side node its preferred partner of the two and
    every a-side node its less preferred one; the join is the reverse.
    Both are stable, and edge by edge the pair (meet, join) uses exactly
    the edges of (m1, m2) with the same multiplicity.
    """
    decomposition = decompose(instance, m1, m2)
    meet = swap(decomposition, decomposition.flip_to_favour_b)
    join = swap(decomposition, decomposition.flip_to_favour_a)
    for label, m in (("meet", meet), ("join", join)):
        bad = blocking_pairs(instance, m)
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
    lists = [
        tuple(b.index for b in instance.neighbors(NodeId(SIDE_A, i)))
        for i in range(instance.a_count)
    ]
    b_rank = instance.b_rank
    start = gale_shapley(instance, SIDE_A)
    pos: list[int | None] = [None] * instance.a_count
    holder: list[int | None] = [None] * instance.b_count
    for edge in start.edges:
        pos[edge.a] = lists[edge.a].index(edge.b)
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
