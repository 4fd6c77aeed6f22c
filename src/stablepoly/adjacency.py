"""When do two stable matchings span an edge of the matching region?

Two routes of different strength, kept deliberately separate:

* a necessary test: every difference component must lean the same way;
* the exact test: the segment midpoint admits no convex combination of
  stable matchings other than the trivial half-half one.

The exact test reads the largest weight each rival stable matching can
take in such a combination off the edge sets alone (the incidence-sum
rule). The region is the convex hull of the stable incidence vectors,
and an injective affine map carries it onto the order polytope of the
rotation poset (Irving & Leather 1986; Aprile, Cevallos & Faenza 2018),
whose vertices are the indicators of the closed sets. There the
midpoint of I and J is 1 on their intersection, 1/2 on their symmetric
difference Q and 0 elsewhere. A rival K with weight w > 0 lies between
the intersection and the union. Take it out and rescale: the rest is
(1/2 - w)/(1 - w) on K & Q and 1/(2(1 - w)) on Q - K, so w <= 1/2, and
the rest lies in the order polytope only if Q - K is closed within Q.
Then I + J - K is the indicator of a closed set, and K takes weight 1/2
against it. So every rival's largest weight is 0 or exactly 1/2. For
the pair u, v and a rival m it is 1/2 exactly when u + v - m is a
stable incidence vector. That needs m inside u | v, and then the vector
is the one of u ^ v ^ m: every stable matching covers the same nodes
(Gale & Sotomayor 1985), so m holds u & v. The pair is adjacent exactly
when every rival scores 0.

The exact route never consults the orientation, so the implication is
checked against it instead of being true by construction.

A dominance certificate (an edge that one matching beats at both
endpoints while the other beats it at neither) never exists inside the
graph for two stable matchings; it becomes productive once the edge is
deleted and only its preference ranks remain, which removed_edge_witness
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .instances import Edge, Instance, remove_edge
from .lattice import MAX_STABLE_EDGES, decompose, enumerate_stable
from .matchings import Matching

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class Witness(NamedTuple):
    """A deleted graph edge certifying non-adjacency (removed_edge_witness).

    ``dominant`` names the matching (1 or 2) that strictly out-ranks the
    edge at both of its endpoints; the other matching out-ranks it at
    neither endpoint.
    """

    edge: Edge
    dominant: int


def _dominated_by(host: Instance, edge: Edge, m1: Matching, m2: Matching) -> int | None:
    """Which matching out-ranks ``edge`` at both endpoints while the other
    out-ranks it at neither, judged by ``host``'s preference lists.

    Returns 1, 2, or None. The strict cutoffs mean the pivot edge never
    counts as beating itself.
    """
    at_a = host.better_edges(at=edge.a_node, than=edge.b_node)
    at_b = host.better_edges(at=edge.b_node, than=edge.a_node)
    for dominant, strong, weak in ((1, m1, m2), (2, m2, m1)):
        if (
            strong.edges & at_a
            and strong.edges & at_b
            and not (weak.edges & (at_a | at_b))
        ):
            return dominant
    return None


def removed_edge_witness(
    host: Instance, edge: Edge, m1: Matching, m2: Matching
) -> Witness | None:
    """Certify non-adjacency in ``host`` minus ``edge`` using host ranks.

    The deleted edge keeps its position in both endpoints' preference
    lists even though neither matching may use it, and that leftover rank
    information can separate the pair: if one matching beats the deleted
    edge at both endpoints while the other beats it at neither, the two
    endpoints lie in distinct difference components leaning opposite
    ways, so the matchings are not adjacent in the reduced instance.

    Both matchings must be stable in ``host`` minus ``edge`` (checked);
    stability in ``host`` itself is not required and typically fails for
    one of them.
    """
    if edge not in host.edges:
        raise ValueError(f"{host.edge_name(edge)} is not an edge")
    reduced = remove_edge(host, edge)
    decompose(reduced, m1, m2)
    dominant = _dominated_by(host, edge, m1, m2)
    if dominant is None:
        return None
    return Witness(edge, dominant)


def _exact_adjacency(
    instance: Instance, m1: Matching, m2: Matching, max_edges: int
) -> tuple[bool, list[tuple[Matching, Fraction]], dict[Matching, Fraction] | None]:
    """The midpoint test by the incidence-sum rule: each rival's largest
    weight is 1/2 when u + v - m is another stable matching, else 0.

    ``alternative`` is the half-half decomposition of the midpoint by the
    first rival that has such a partner; the partner is a rival listed
    after it, so the decomposition is in stable order.
    """
    if m1 == m2:
        raise ValueError("adjacency needs two distinct matchings")
    stable = enumerate_stable(instance, max_edges)
    if m1 not in stable or m2 not in stable:
        raise ValueError("adjacency is defined between stable matchings only")
    by_edges = {m.edges: m for m in stable}
    union = m1.edges | m2.edges
    maxima: list[tuple[Matching, Fraction]] = []
    alternative: dict[Matching, Fraction] | None = None
    for m in stable:
        if m == m1 or m == m2:
            continue
        partner = by_edges.get(m1.edges ^ m2.edges ^ m.edges) if m.edges <= union else None
        maxima.append((m, ZERO if partner is None else HALF))
        if partner is not None and alternative is None:
            alternative = {m: HALF, partner: HALF}
    adjacent = all(v == 0 for _, v in maxima)
    return adjacent, maxima, alternative


@dataclass(frozen=True)
class AdjacencyVerdict:
    """Both routes on one pair, with their agreement enforced.

    ``adjacent`` is the exact midpoint verdict and ``uniform`` the
    orientation test; an adjacent pair with mixed leanings would mean one
    of them is wrong. ``alternative`` is a decomposition of the midpoint
    that gives weight to some rival matching, present exactly when the
    pair is not adjacent and at least one rival can take weight.
    """

    adjacent: bool
    uniform: bool
    maxima: tuple[tuple[Matching, Fraction], ...]
    alternative: dict[Matching, Fraction] | None

    def __post_init__(self) -> None:
        if self.adjacent and not self.uniform:
            raise AssertionError(
                "pair is adjacent yet its difference components disagree; "
                "one of the two routes is wrong"
            )

    def to_json(self, instance: Instance) -> dict:
        return {
            "adjacent": self.adjacent,
            "uniformly_oriented": self.uniform,
            "rival_maxima": {m.label(instance): str(v) for m, v in self.maxima},
            "alternative": None
            if self.alternative is None
            else {m.label(instance): str(w) for m, w in self.alternative.items()},
        }


def adjacency_verdict(
    instance: Instance, m1: Matching, m2: Matching, max_edges: int = MAX_STABLE_EDGES
) -> AdjacencyVerdict:
    """Whether stable ``m1`` and ``m2`` span an edge of the matching region.

    Both matchings must be distinct and stable (``ValueError`` otherwise).
    The exact verdict needs the whole stable lattice, so an instance with
    more than ``max_edges`` edges raises ``LimitError``. The lattice comes
    from ``enumerate_stable``, which keeps the one of the most recent
    instance: checking every pair of one instance walks it once.
    """
    adjacent, maxima, alternative = _exact_adjacency(instance, m1, m2, max_edges)
    deco = decompose(instance, m1, m2)
    return AdjacencyVerdict(
        adjacent=adjacent,
        uniform=not (deco.flip_to_favour_a and deco.flip_to_favour_b),
        maxima=tuple(maxima),
        alternative=alternative,
    )
