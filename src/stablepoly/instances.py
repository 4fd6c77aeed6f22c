"""Bipartite preference instances.

Nodes live on two sides A and B. Each node ranks its incident edges
strictly, best first, by listing the other endpoints: a pair is an edge
exactly when both endpoints list each other, and every listing is an
edge, so each preference list is its node's edge list. Being unmatched
is always the least preferred outcome.
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


class InstanceError(ValueError):
    """Raised when serialized instance data cannot be interpreted."""


class LimitError(ValueError):
    """Raised when a sound instance is over the size limit of a sweep."""


@dataclass(frozen=True)
class Instance:
    """A two-sided preference system.

    ``a_prefs[i]`` lists the b-side neighbours of node i, best first;
    ``b_prefs[j]`` the a-side neighbours of node j. Every listing must be
    in range, listed once, and returned by the other node, so ``edges``
    is exactly the set of listings; any other table raises ``ValueError``
    naming each fault. Node names are kept only for display and
    serialization and do not affect equality.

    ``a_rank[i]`` maps each b-side neighbour of node i to its position in
    ``a_prefs[i]``, 0 for the favourite; ``b_rank[j]`` does the same for
    b-side node j.
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
        a_rank = tuple({j: r for r, j in enumerate(p)} for p in self.a_prefs)
        b_rank = tuple({i: r for r, i in enumerate(p)} for p in self.b_prefs)
        # the mutual pairs number at most the listings of either side, and
        # exactly that many only when no listing is out of range, repeated
        # or one-sided
        edges = frozenset(
            Edge(i, j)
            for i, prefs in enumerate(self.a_prefs)
            for j in prefs
            if 0 <= j < self.b_count and i in b_rank[j]
        )
        if not len(edges) == sum(map(len, self.a_prefs)) == sum(map(len, self.b_prefs)):
            raise ValueError("; ".join(_table_problems(self)))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "a_rank", a_rank)
        object.__setattr__(self, "b_rank", b_rank)

    # -- basic queries -------------------------------------------------

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

    def canonical_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    # -- preference queries ---------------------------------------------

    @cached_property
    def cover_sets(self) -> dict[Edge, frozenset[Edge]]:
        """The cover set of every edge, built on first use.

        The cover of ab is ab itself, the edges at a that a prefers to b,
        and the edges at b that b prefers to a. A matching dominates ab
        when it meets this set, and is stable when it meets every one.
        Each node's list is walked once, best first, and every edge at
        the node takes the edges already passed. Every member is one of
        the instance's own ``edges`` objects, each cover's first entry.
        """
        covers: dict[Edge, list[Edge]] = {e: [e] for e in self.edges}

        def add(ranked: Iterable[Edge]) -> None:
            better: list[Edge] = []
            for e in ranked:
                cover = covers[e]
                cover += better
                better.append(cover[0])

        for i, prefs in enumerate(self.a_prefs):
            add(Edge(i, j) for j in prefs)
        for j, prefs in enumerate(self.b_prefs):
            add(Edge(i, j) for i in prefs)
        return {e: frozenset(cover) for e, cover in covers.items()}

    @cached_property
    def _covering_edge_sets(self) -> set[frozenset[Edge]]:
        """The edge sets already found to meet every cover set.

        Only ``matchings.covers_every_edge`` reads and fills it, and only
        with edge sets that passed its whole check, so it never holds more
        edge sets than the instance has stable matchings.
        """
        return set()


def _table_problems(instance: Instance) -> list[str]:
    """The faults of a refused table: each listing out of range or
    repeated, side A first, then each one-sided listing. Built only to
    explain why ``Instance`` refuses the table."""
    problems: list[str] = []
    sides = (
        (instance.a_prefs, instance.a_names, instance.b_prefs, instance.b_names),
        (instance.b_prefs, instance.b_names, instance.a_prefs, instance.a_names),
    )
    for table, names, other_table, other_names in sides:
        for i, prefs in enumerate(table):
            seen: set[int] = set()
            for j in prefs:
                if not 0 <= j < len(other_table):
                    problems.append(f"unknown neighbour index {j} in prefs of {names[i]}")
                    continue
                if j in seen:
                    problems.append(f"not a strict order: duplicate {other_names[j]} in prefs of {names[i]}")
                seen.add(j)
    for table, names, other_table, other_names in sides:
        for i, prefs in enumerate(table):
            for j in prefs:
                if 0 <= j < len(other_table) and i not in other_table[j]:
                    problems.append(
                        f"edge/pref mismatch: {names[i]} lists {other_names[j]} "
                        f"but {other_names[j]} does not list {names[i]}"
                    )
    return problems


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
    when no edge can ever be drawn. Negative side sizes and a probability
    outside [0, 1] raise ``ValueError`` too.
    """
    if skip_edgeless and not (a_count > 0 and b_count > 0 and edge_prob > 0):
        raise ValueError(
            "skip_edgeless needs both sides non-empty and a positive edge probability"
        )
    for side, count in (("a-side", a_count), ("b-side", b_count)):
        if count < 0:
            raise ValueError(f"{side} size must be at least 0, got {count}")
    if not 0 <= edge_prob <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
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
        # edge names join two node names with a space, weight keys split on whitespace
        spaced = [x for x in data[key] if any(c.isspace() for c in x)]
        if spaced:
            raise InstanceError(f"node names must not contain whitespace: {spaced}")
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
    try:
        instance = Instance(
            len(a_names), len(b_names), tuple(a_prefs), tuple(b_prefs),
            tuple(a_names), tuple(b_names),
        )
    except ValueError as exc:
        # only one-sided listings reach here; the rows above drop the rest
        problems.append(str(exc))
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
        edge = Edge(u.index, v.index)
        if u.side != SIDE_A or v.side != SIDE_B or edge not in instance.edges:
            raise InstanceError(f"weight key {key!r} is not an edge of the instance")
        if edge in weights:
            raise InstanceError(f"duplicate weight for edge {key!r}")
        try:
            weights[edge] = Fraction(str(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"weight {raw!r} for {key!r} is not a rational") from exc
    return weights
