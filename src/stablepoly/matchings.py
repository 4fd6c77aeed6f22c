"""Matchings over a preference instance, stability tests, proposal algorithm.

A matching is its set of edges, each a pair of node indices. The stability
tests and deferred acceptance work on those indices and on the instance's
integer rank tables; no map keyed by ``NodeId`` is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .instances import SIDE_A, SIDE_B, Edge, Instance


@dataclass(frozen=True)
class Matching:
    """A set of pairwise node-disjoint edges.

    Only the edges are stored: no two may share an a-index or a b-index.
    """

    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        size = len(self.edges)
        if len({e.a for e in self.edges}) != size or len({e.b for e in self.edges}) != size:
            raise ValueError(f"two matching edges share a node: {sorted(self.edges)}")

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Matching":
        return cls(frozenset(edges))

    @classmethod
    def from_pairs(cls, instance: Instance, pairs: Iterable[Sequence[str]]) -> "Matching":
        """Build from name pairs, each a list or tuple of one a-side and one
        b-side name; any other entry, or a pair given twice, raises
        ``ValueError``."""
        edges: set[Edge] = set()
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
            if edge in edges:
                raise ValueError(f"pair {names!r} is repeated")
            edges.add(edge)
        return cls(frozenset(edges))

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


def covers_every_edge(instance: Instance, matching: Matching) -> bool:
    """Stability as a covering condition, checked edge by edge.

    An edge ab is dominated when the matching meets its cover set
    (``Instance.cover_sets``): ab itself, the edges at a that a prefers to
    b, and the edges at b that b prefers to a. The matching is stable when
    every edge is dominated. A non-edge lies in no cover set, so a matching
    that uses one raises ``ValueError`` before the covers are read.

    Each passing verdict is computed once per instance and edge set: an
    edge set that passes is kept on the instance, and asking again
    returns ``True`` at once. A failing edge set, or one with a non-edge,
    is never kept, so it is checked, and refused, again on every call.
    """
    edges = matching.edges
    passed = instance._covering_edge_sets
    if edges in passed:
        return True
    _require_subgraph(instance, matching)
    if any(map(edges.isdisjoint, instance.cover_sets.values())):
        return False
    passed.add(edges)
    return True


def is_stable(instance: Instance, matching: Matching) -> bool:
    """True when ``blocking_pairs`` finds no blocking edge, so both
    stability routes have run and agreed."""
    return not blocking_pairs(instance, matching)


def blocking_pairs(instance: Instance, matching: Matching) -> list[Edge]:
    """Edges whose endpoints would both rather have each other, sorted.

    The one place where the two stability routes meet: the covering test
    (``covers_every_edge``, memo included) runs first, refusing a matching
    with a non-edge, and then the blocking-pair scan, which shares nothing
    with it beyond the instance model. The scan runs on every call, also
    when the covering verdict comes from the instance's memo. The test
    must pass exactly when the scan finds no edge; a disagreement between
    the two raises ``RuntimeError``.
    """
    covering = covers_every_edge(instance, matching)
    blocking = _blocking_scan(instance, matching)
    if covering == bool(blocking):
        raise RuntimeError(
            f"stability routines disagree on {sorted(matching.edges)}: "
            f"covering says {covering}, blocking scan says {not blocking}"
        )
    return blocking


def _blocking_scan(instance: Instance, matching: Matching) -> list[Edge]:
    """The blocking pairs by the Gale-Shapley definition, sorted, for a
    matching already known to use only edges of the instance.

    Each a-node's list is walked only down to its partner, since the
    a-node wants no edge further down.
    """
    a_partner = {e.a: e.b for e in matching.edges}
    b_partner = {e.b: e.a for e in matching.edges}
    b_rank = instance.b_rank
    blocking = []
    for a, prefs in enumerate(instance.a_prefs):
        mine = a_partner.get(a)
        for b in prefs:
            if b == mine:
                break
            theirs = b_partner.get(b)
            if theirs is None or b_rank[b][a] < b_rank[b][theirs]:
                blocking.append(Edge(a, b))
    blocking.sort()
    return blocking


def gale_shapley(instance: Instance, proposing_side: str = SIDE_A) -> Matching:
    """Deferred acceptance; the proposing side gets its best stable outcome.

    Proposers work down their lists; a receiver holds the best offer seen
    so far and trades up whenever a preferred proposer shows up.
    """
    if proposing_side not in (SIDE_A, SIDE_B):
        raise ValueError(f"unknown side {proposing_side!r}")
    if proposing_side == SIDE_A:
        lists, rank = instance.a_prefs, instance.b_rank
    else:
        lists, rank = instance.b_prefs, instance.a_rank
    held: list[int | None] = [None] * len(rank)
    next_choice = [0] * len(lists)
    free = deque(p for p, row in enumerate(lists) if row)
    while free:
        proposer = free.popleft()
        target = lists[proposer][next_choice[proposer]]
        next_choice[proposer] += 1
        current = held[target]
        if current is None:
            held[target] = proposer
            continue
        if rank[target][proposer] < rank[target][current]:
            held[target], proposer = proposer, current
        # the rejected one goes on down its list
        if next_choice[proposer] < len(lists[proposer]):
            free.append(proposer)
    return Matching(
        frozenset(
            Edge(p, r) if proposing_side == SIDE_A else Edge(r, p)
            for r, p in enumerate(held)
            if p is not None
        )
    )


def matchings_iter(instance: Instance) -> Iterator[Matching]:
    """Every matching of the instance, the empty one included."""
    edges = instance.canonical_edges()
    # the a-indices and the b-indices the chosen edges cover
    used_a: set[int] = set()
    used_b: set[int] = set()

    def extend(start: int, chosen: list[Edge]) -> Iterator[Matching]:
        yield Matching(frozenset(chosen))
        for k in range(start, len(edges)):
            e = edges[k]
            if e.a in used_a or e.b in used_b:
                continue
            used_a.add(e.a)
            used_b.add(e.b)
            chosen.append(e)
            yield from extend(k + 1, chosen)
            chosen.pop()
            used_a.remove(e.a)
            used_b.remove(e.b)

    yield from extend(0, [])
