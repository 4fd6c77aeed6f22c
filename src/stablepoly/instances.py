"""Bipartite preference instances.

Nodes live on two sides A and B. Each node ranks a subset of the other
side strictly, best first, and an edge exists exactly when both endpoints
list each other. Being unmatched is always the least preferred outcome.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

SIDE_A = "A"
SIDE_B = "B"


class NodeId(NamedTuple):
    side: str
    index: int


class Edge(NamedTuple):
    """An edge, stored as the pair of endpoint indices (a-side, b-side)."""

    a: int
    b: int

    @property
    def a_node(self) -> NodeId:
        return NodeId(SIDE_A, self.a)

    @property
    def b_node(self) -> NodeId:
        return NodeId(SIDE_B, self.b)

    def other(self, node: NodeId) -> NodeId:
        if node == self.a_node:
            return self.b_node
        if node == self.b_node:
            return self.a_node
        raise ValueError(f"{node} is not an endpoint of {self}")


class InstanceError(ValueError):
    """Raised when serialized instance data cannot be interpreted."""


class LimitError(ValueError):
    """Raised when a sound instance is over the size limit of a sweep."""


@dataclass(frozen=True)
class Instance:
    """A two-sided preference system.

    ``a_prefs[i]`` lists the b-side indices node i ranks, best first;
    ``b_prefs[j]`` the a-side indices node j ranks. Node names are kept
    only for display and serialization and do not affect equality.

    ``a_rank[i]`` maps each b-side index that node i lists to its
    position in ``a_prefs[i]``, 0 for the favourite; ``b_rank[j]`` does
    the same for b-side node j. One-sided listings keep their position.
    """

    a_count: int
    b_count: int
    a_prefs: tuple[tuple[int, ...], ...]
    b_prefs: tuple[tuple[int, ...], ...]
    a_names: tuple[str, ...] = field(default=(), compare=False)
    b_names: tuple[str, ...] = field(default=(), compare=False)
    edges: frozenset[Edge] = field(init=False, compare=False, repr=False)
    a_rank: tuple[dict[int, int], ...] = field(init=False, compare=False, repr=False)
    b_rank: tuple[dict[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.a_prefs) != self.a_count or len(self.b_prefs) != self.b_count:
            raise ValueError("preference table size does not match node count")
        if not self.a_names:
            object.__setattr__(self, "a_names", tuple(f"a{i + 1}" for i in range(self.a_count)))
        if not self.b_names:
            object.__setattr__(self, "b_names", tuple(f"b{j + 1}" for j in range(self.b_count)))
        if len(self.a_names) != self.a_count or len(self.b_names) != self.b_count:
            raise ValueError("name list size does not match node count")
        edges = frozenset(
            Edge(i, j)
            for i, prefs in enumerate(self.a_prefs)
            for j in prefs
            if 0 <= j < self.b_count and i in self.b_prefs[j]
        )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(
            self, "a_rank", tuple({j: r for r, j in enumerate(p)} for p in self.a_prefs)
        )
        object.__setattr__(
            self, "b_rank", tuple({i: r for r, i in enumerate(p)} for p in self.b_prefs)
        )

    # -- basic queries -------------------------------------------------

    def nodes(self) -> Iterator[NodeId]:
        for i in range(self.a_count):
            yield NodeId(SIDE_A, i)
        for j in range(self.b_count):
            yield NodeId(SIDE_B, j)

    def node_name(self, node: NodeId) -> str:
        names = self.a_names if node.side == SIDE_A else self.b_names
        return names[node.index]

    def node_by_name(self, name: str) -> NodeId:
        if name in self.a_names:
            return NodeId(SIDE_A, self.a_names.index(name))
        if name in self.b_names:
            return NodeId(SIDE_B, self.b_names.index(name))
        raise KeyError(name)

    def edge_name(self, edge: Edge) -> str:
        return f"{self.a_names[edge.a]} {self.b_names[edge.b]}"

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if u.side == v.side:
            return False
        a, b = (u, v) if u.side == SIDE_A else (v, u)
        return Edge(a.index, b.index) in self.edges

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Neighbours of ``node`` in preference order, best first.

        Only mutual listings count; a one-sided listing is not an edge.
        """
        if node.side == SIDE_A:
            listed = (NodeId(SIDE_B, j) for j in self.a_prefs[node.index])
        else:
            listed = (NodeId(SIDE_A, i) for i in self.b_prefs[node.index])
        return tuple(v for v in listed if self.has_edge(node, v))

    def canonical_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    # -- preference queries ---------------------------------------------

    def rank(self, node: NodeId, other: NodeId) -> int:
        """Position of ``other`` in ``node``'s list, 0 for the favourite.

        Raises ``ValueError`` unless the nodes sit on opposite sides, both
        indices are in range and ``node`` lists ``other``.
        """
        if node.side == SIDE_A and other.side == SIDE_B:
            table, other_count = self.a_rank, self.b_count
        elif node.side == SIDE_B and other.side == SIDE_A:
            table, other_count = self.b_rank, self.a_count
        else:
            raise ValueError(f"{node} and {other} are not on opposite sides")
        if 0 <= node.index < len(table) and 0 <= other.index < other_count:
            position = table[node.index].get(other.index)
            if position is not None:
                return position
        raise ValueError(f"{other} is not ranked by {node}")

    def prefers(self, node: NodeId, first: NodeId | None, second: NodeId | None) -> bool:
        """True when ``node`` strictly prefers ``first`` over ``second``.

        ``None`` stands for being unmatched and loses against every ranked
        neighbour; two ``None`` arguments compare equal, hence False.
        """
        if first is None:
            return False
        if second is None:
            return True
        return self.rank(node, first) < self.rank(node, second)

    def better_edges(self, at: NodeId, than: NodeId) -> frozenset[Edge]:
        """Edges at node ``at`` whose far endpoint ``at`` prefers to ``than``.

        ``than`` must itself be a neighbour of ``at``; the cutoff is strict,
        so the edge to ``than`` is never included.
        """
        cutoff = self.rank(at, than)
        ranks = (self.a_rank if at.side == SIDE_A else self.b_rank)[at.index]
        result = []
        for other in self.neighbors(at):
            if ranks[other.index] >= cutoff:
                continue
            a, b = (at, other) if at.side == SIDE_A else (other, at)
            result.append(Edge(a.index, b.index))
        return frozenset(result)

    @cached_property
    def cover_sets(self) -> dict[Edge, frozenset[Edge]]:
        """The cover set of every edge, built on first use.

        The cover of ab is ab itself, the edges at a that a prefers to b,
        and the edges at b that b prefers to a. A matching dominates ab
        when it meets this set, and is stable when it meets every one.
        """
        return {
            e: self.better_edges(at=e.a_node, than=e.b_node)
            | self.better_edges(at=e.b_node, than=e.a_node)
            | {e}
            for e in self.edges
        }


def validate(instance: Instance) -> list[str]:
    """Collect structural violations, empty when the instance is sound.

    Checks index ranges, strictness of each order, and mutuality of the
    listings. Cross-side references cannot be expressed in index form, so
    only the JSON reader needs to reject those.
    """
    problems: list[str] = []
    sides = (
        (SIDE_A, instance.a_prefs, instance.a_names, instance.b_count, instance.b_names),
        (SIDE_B, instance.b_prefs, instance.b_names, instance.a_count, instance.a_names),
    )
    for side, table, names, other_count, other_names in sides:
        for i, prefs in enumerate(table):
            seen: set[int] = set()
            for j in prefs:
                if not 0 <= j < other_count:
                    problems.append(f"unknown neighbour index {j} in prefs of {names[i]}")
                    continue
                if j in seen:
                    problems.append(f"not a strict order: duplicate {other_names[j]} in prefs of {names[i]}")
                seen.add(j)
    for i, prefs in enumerate(instance.a_prefs):
        for j in prefs:
            if 0 <= j < instance.b_count and i not in instance.b_prefs[j]:
                problems.append(
                    "edge/pref mismatch: "
                    f"{instance.a_names[i]} lists {instance.b_names[j]} "
                    f"but {instance.b_names[j]} does not list {instance.a_names[i]}"
                )
    for j, prefs in enumerate(instance.b_prefs):
        for i in prefs:
            if 0 <= i < instance.a_count and j not in instance.a_prefs[i]:
                problems.append(
                    "edge/pref mismatch: "
                    f"{instance.b_names[j]} lists {instance.a_names[i]} "
                    f"but {instance.a_names[i]} does not list {instance.b_names[j]}"
                )
    return problems


def remove_edge(instance: Instance, edge: Edge) -> Instance:
    """Return a copy of ``instance`` without ``edge``.

    Both endpoints drop the far node from their lists; relative order of
    the remaining neighbours is untouched.  Names carry over so matchings
    written against the original still parse against the reduced instance
    (as long as they avoid the removed edge).
    """
    if edge not in instance.edges:
        raise ValueError(f"{instance.edge_name(edge)} is not an edge")
    a_prefs = list(instance.a_prefs)
    b_prefs = list(instance.b_prefs)
    a_prefs[edge.a] = tuple(j for j in a_prefs[edge.a] if j != edge.b)
    b_prefs[edge.b] = tuple(i for i in b_prefs[edge.b] if i != edge.a)
    return Instance(
        instance.a_count,
        instance.b_count,
        tuple(a_prefs),
        tuple(b_prefs),
        instance.a_names,
        instance.b_names,
    )


# -- generation ----------------------------------------------------------


def exhaustive_complete(n: int) -> Iterator[Instance]:
    """Yield every complete n-by-n instance, all (n!)^(2n) of them.

    Kept to n <= 3 on purpose: n = 4 would already be 24^8 instances.
    """
    if not 1 <= n <= 3:
        raise ValueError("exhaustive generation is limited to 1 <= n <= 3")
    perms = list(itertools.permutations(range(n)))
    for combo in itertools.product(perms, repeat=2 * n):
        yield Instance(n, n, tuple(combo[:n]), tuple(combo[n:]))


def random_instance(
    a_count: int,
    b_count: int,
    edge_prob: float,
    rng: random.Random,
    skip_edgeless: bool = False,
) -> Instance:
    """Draw one instance: each pair becomes an edge with ``edge_prob``,
    then every node shuffles its neighbour list independently.

    ``skip_edgeless`` redraws until some edge exists, so it is refused
    when no edge can ever be drawn.
    """
    if skip_edgeless and not (a_count > 0 and b_count > 0 and edge_prob > 0):
        raise ValueError(
            "skip_edgeless needs both sides non-empty and a positive edge probability"
        )
    while True:
        present = [
            (i, j)
            for i in range(a_count)
            for j in range(b_count)
            if rng.random() < edge_prob
        ]
        if skip_edgeless and not present:
            continue
        a_lists: list[list[int]] = [[] for _ in range(a_count)]
        b_lists: list[list[int]] = [[] for _ in range(b_count)]
        for i, j in present:
            a_lists[i].append(j)
            b_lists[j].append(i)
        for lst in a_lists:
            rng.shuffle(lst)
        for lst in b_lists:
            rng.shuffle(lst)
        return Instance(
            a_count,
            b_count,
            tuple(tuple(lst) for lst in a_lists),
            tuple(tuple(lst) for lst in b_lists),
        )


def random_instances(
    a_count: int,
    b_count: int,
    edge_prob: float,
    seed: int,
    skip_edgeless: bool = False,
) -> Iterator[Instance]:
    """Infinite deterministic stream of random instances for one seed."""
    rng = random.Random(seed)
    while True:
        yield random_instance(a_count, b_count, edge_prob, rng, skip_edgeless)


# -- serialization -------------------------------------------------------


def instance_to_json(instance: Instance) -> dict:
    prefs: dict[str, list[str]] = {}
    for i, row in enumerate(instance.a_prefs):
        prefs[instance.a_names[i]] = [instance.b_names[j] for j in row]
    for j, row in enumerate(instance.b_prefs):
        prefs[instance.b_names[j]] = [instance.a_names[i] for i in row]
    return {"a": list(instance.a_names), "b": list(instance.b_names), "prefs": prefs}


def instance_from_json(data: object) -> Instance:
    """Parse the dict form, rejecting anything structurally unsound."""
    if not isinstance(data, dict):
        raise InstanceError("instance document must be a JSON object")
    problems: list[str] = []
    for key in ("a", "b"):
        if not isinstance(data.get(key), list) or not all(
            isinstance(x, str) and x for x in data.get(key, [])
        ):
            raise InstanceError(f"field {key!r} must be a list of non-empty names")
    a_names = list(data["a"])
    b_names = list(data["b"])
    if len(set(a_names)) != len(a_names) or len(set(b_names)) != len(b_names):
        raise InstanceError("duplicate node name")
    if set(a_names) & set(b_names):
        raise InstanceError("a node name appears on both sides")
    prefs = data.get("prefs", {})
    if not isinstance(prefs, dict):
        raise InstanceError("field 'prefs' must be an object")
    unknown = set(prefs) - set(a_names) - set(b_names)
    if unknown:
        raise InstanceError(f"prefs mention unknown nodes: {sorted(unknown)}")

    def read_side(names: list[str], others: list[str]) -> list[tuple[int, ...]]:
        other_index = {name: k for k, name in enumerate(others)}
        table = []
        for name in names:
            row = prefs.get(name, [])
            if not isinstance(row, list):
                problems.append(f"prefs of {name} must be a list")
                row = []
            indices = []
            seen: set[str] = set()
            for entry in row:
                if not isinstance(entry, str):
                    problems.append(f"prefs of {name} list {entry!r}, not a node name")
                    continue
                if entry not in other_index:
                    if entry in names:
                        problems.append(f"cross-side preference: {name} lists {entry}")
                    else:
                        problems.append(f"unknown node {entry!r} in prefs of {name}")
                    continue
                if entry in seen:
                    problems.append(f"not a strict order: duplicate {entry} in prefs of {name}")
                    continue
                seen.add(entry)
                indices.append(other_index[entry])
            table.append(tuple(indices))
        return table

    a_prefs = read_side(a_names, b_names)
    b_prefs = read_side(b_names, a_names)
    instance = Instance(
        len(a_names), len(b_names), tuple(a_prefs), tuple(b_prefs),
        tuple(a_names), tuple(b_names),
    )
    problems.extend(validate(instance))
    if problems:
        raise InstanceError("; ".join(problems))
    return instance


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"not valid JSON: {exc}") from exc
    return instance_from_json(data)


def parse_weights(data: object, instance: Instance) -> dict[Edge, Fraction]:
    """Read a map from edge name ("a1 b1") to an exact weight ("3/2")."""
    if not isinstance(data, dict):
        raise InstanceError("weights document must be a JSON object")
    weights: dict[Edge, Fraction] = {}
    for key, raw in data.items():
        parts = key.split()
        if len(parts) != 2:
            raise InstanceError(f"weight key {key!r} is not of the form 'a-name b-name'")
        try:
            u = instance.node_by_name(parts[0])
            v = instance.node_by_name(parts[1])
        except KeyError as exc:
            raise InstanceError(f"weight key {key!r} names an unknown node") from exc
        if u.side != SIDE_A or v.side != SIDE_B or not instance.has_edge(u, v):
            raise InstanceError(f"weight key {key!r} is not an edge of the instance")
        edge = Edge(u.index, v.index)
        if edge in weights:
            raise InstanceError(f"duplicate weight for edge {key!r}")
        try:
            weights[edge] = Fraction(str(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"weight {raw!r} for {key!r} is not a rational") from exc
    return weights
