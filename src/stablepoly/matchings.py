"""Matchings over a preference instance, stability tests, proposal algorithm."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .instances import SIDE_A, SIDE_B, Edge, Instance, NodeId


@dataclass(frozen=True)
class Matching:
    """A set of pairwise node-disjoint edges."""

    edges: frozenset[Edge]
    _partner: dict[NodeId, NodeId] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        partner: dict[NodeId, NodeId] = {}
        for edge in self.edges:
            for node, other in ((edge.a_node, edge.b_node), (edge.b_node, edge.a_node)):
                if node in partner:
                    raise ValueError(f"two matching edges share node {node}")
                partner[node] = other
        object.__setattr__(self, "_partner", partner)

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Matching":
        return cls(frozenset(edges))

    @classmethod
    def from_pairs(cls, instance: Instance, pairs: Iterable[Sequence[str]]) -> "Matching":
        """Build from name pairs, each a list or tuple of one a-side and one
        b-side name; any other entry raises ``ValueError``."""
        edges = []
        for names in pairs:
            if not (
                isinstance(names, (list, tuple))
                and len(names) == 2
                and all(isinstance(x, str) for x in names)
            ):
                raise ValueError(f"matching entry {names!r} is not a pair of names")
            try:
                u = instance.node_by_name(names[0])
                v = instance.node_by_name(names[1])
            except KeyError as exc:
                raise ValueError(f"pair {names!r} names an unknown node") from exc
            if u.side == v.side:
                raise ValueError(f"pair {names!r} has both nodes on side {u.side}")
            a, b = (u, v) if u.side == SIDE_A else (v, u)
            edge = Edge(a.index, b.index)
            if edge not in instance.edges:
                raise ValueError(f"pair {names!r} is not an edge of the instance")
            edges.append(edge)
        return cls(frozenset(edges))

    def partner(self, node: NodeId) -> NodeId | None:
        return self._partner.get(node)

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def label(self, instance: Instance) -> str:
        """One-line display form: edge names in order, or ``(empty)``."""
        return ", ".join(instance.edge_name(e) for e in self.sorted_edges()) or "(empty)"

    def to_pairs(self, instance: Instance) -> list[list[str]]:
        return [
            [instance.a_names[e.a], instance.b_names[e.b]] for e in self.sorted_edges()
        ]

    def __len__(self) -> int:
        return len(self.edges)


def _require_subgraph(instance: Instance, matching: Matching) -> None:
    stray = matching.edges - instance.edges
    if stray:
        raise ValueError(f"matching uses non-edges: {sorted(stray)}")


def is_stable(instance: Instance, matching: Matching) -> bool:
    """Stability as a covering condition, checked edge by edge.

    An edge ab is dominated when the matching meets its cover set
    (``Instance.cover_sets``): ab itself, the edges at a that a prefers to
    b, and the edges at b that b prefers to a. The matching is stable when
    every edge is dominated.

    The blocking-pair scan, which shares nothing with this routine beyond
    the instance model, always runs too; a disagreement between the two
    raises ``RuntimeError``.
    """
    _require_subgraph(instance, matching)
    stable = not any(
        matching.edges.isdisjoint(cover) for cover in instance.cover_sets.values()
    )
    verdict = not blocking_pairs(instance, matching)
    if verdict != stable:
        raise RuntimeError(
            f"stability routines disagree on {sorted(matching.edges)}: "
            f"covering says {stable}, blocking scan says {verdict}"
        )
    return stable


def blocking_pairs(instance: Instance, matching: Matching) -> list[Edge]:
    """Edges whose endpoints would both rather have each other, sorted."""
    _require_subgraph(instance, matching)
    a_partner = {e.a: e.b for e in matching.edges}
    b_partner = {e.b: e.a for e in matching.edges}
    a_rank, b_rank = instance.a_rank, instance.b_rank
    blocking = []
    for edge in sorted(instance.edges):
        a, b = edge
        mine, theirs = a_partner.get(a), b_partner.get(b)
        if mine == b:
            continue
        if (mine is None or a_rank[a][b] < a_rank[a][mine]) and (
            theirs is None or b_rank[b][a] < b_rank[b][theirs]
        ):
            blocking.append(edge)
    return blocking


def gale_shapley(instance: Instance, proposing_side: str = SIDE_A) -> Matching:
    """Deferred acceptance; the proposing side gets its best stable outcome.

    Proposers work down their lists; a receiver holds the best offer seen
    so far and trades up whenever a preferred proposer shows up.
    """
    if proposing_side not in (SIDE_A, SIDE_B):
        raise ValueError(f"unknown side {proposing_side!r}")
    held: dict[NodeId, NodeId] = {}
    next_choice: dict[NodeId, int] = {}
    lists: dict[NodeId, tuple[NodeId, ...]] = {}
    free: deque[NodeId] = deque()
    for node in instance.nodes():
        if node.side != proposing_side:
            continue
        lists[node] = instance.neighbors(node)
        next_choice[node] = 0
        if lists[node]:
            free.append(node)
    while free:
        proposer = free.popleft()
        if next_choice[proposer] >= len(lists[proposer]):
            continue
        target = lists[proposer][next_choice[proposer]]
        next_choice[proposer] += 1
        current = held.get(target)
        if current is None:
            held[target] = proposer
        elif instance.prefers(target, proposer, current):
            held[target] = proposer
            if next_choice[current] < len(lists[current]):
                free.append(current)
        else:
            if next_choice[proposer] < len(lists[proposer]):
                free.append(proposer)
    edges = []
    for receiver, proposer in held.items():
        a, b = (proposer, receiver) if proposing_side == SIDE_A else (receiver, proposer)
        edges.append(Edge(a.index, b.index))
    return Matching(frozenset(edges))


def matchings_iter(instance: Instance) -> Iterator[Matching]:
    """Every matching of the instance, the empty one included."""
    edges = instance.canonical_edges()

    def extend(start: int, used: set[NodeId], chosen: list[Edge]) -> Iterator[Matching]:
        yield Matching(frozenset(chosen))
        for k in range(start, len(edges)):
            e = edges[k]
            if e.a_node in used or e.b_node in used:
                continue
            used.add(e.a_node)
            used.add(e.b_node)
            chosen.append(e)
            yield from extend(k + 1, used, chosen)
            chosen.pop()
            used.remove(e.a_node)
            used.remove(e.b_node)

    yield from extend(0, set(), [])
