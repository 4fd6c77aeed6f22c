"""When do two stable matchings span an edge of the matching region?

Two routes of different strength, kept deliberately separate:

* a necessary test: a-side comparability, every a-node that changes
  partner preferring the same matching;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instances import Instance
from .lattice import MAX_STABLE_EDGES, enumerate_stable, partner_maps
from .matchings import Matching

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def _exact_adjacency(
    instance: Instance, m1: Matching, m2: Matching, max_edges: int
) -> tuple[bool, list[tuple[Matching, Fraction]], dict[Matching, Fraction] | None]:
    """The midpoint test by the incidence-sum rule: each rival's largest
    weight is 1/2 when u + v - m is another stable matching, else 0.

    ``alternative`` is the half-half decomposition of the midpoint by the
    first rival that has such a partner; the partner is a rival listed
    after it, so the decomposition is in stable order. Matchings are told
    apart by their edge sets, which is all that ``Matching`` equality
    compares, so the inputs are looked up in a map of the lattice by
    edges.
    """
    e1, e2 = m1.edges, m2.edges
    if e1 == e2:
        raise ValueError("adjacency needs two distinct matchings")
    stable = enumerate_stable(instance, max_edges)
    by_edges = {m.edges: m for m in stable}
    if e1 not in by_edges or e2 not in by_edges:
        raise ValueError("adjacency is defined between stable matchings only")
    union = e1 | e2
    maxima: list[tuple[Matching, Fraction]] = []
    alternative: dict[Matching, Fraction] | None = None
    for m in stable:
        if m.edges == e1 or m.edges == e2:
            continue
        partner = by_edges.get(e1 ^ e2 ^ m.edges) if m.edges <= union else None
        maxima.append((m, ZERO if partner is None else HALF))
        if partner is not None and alternative is None:
            alternative = {m: HALF, partner: HALF}
    adjacent = all(v == 0 for _, v in maxima)
    return adjacent, maxima, alternative


@dataclass(frozen=True)
class AdjacencyVerdict:
    """Both routes on one pair, with their agreement enforced.

    ``adjacent`` is the exact midpoint verdict and ``uniform`` the a-side
    comparability test; an adjacent pair whose a-nodes lean both ways
    would mean one of them is wrong. ``alternative`` is a decomposition of
    the midpoint that gives weight to some rival matching, present exactly
    when the pair is not adjacent and at least one rival can take weight.
    """

    adjacent: bool
    uniform: bool
    maxima: tuple[tuple[Matching, Fraction], ...]
    alternative: dict[Matching, Fraction] | None

    def __post_init__(self) -> None:
        if self.adjacent and not self.uniform:
            raise AssertionError(
                "pair is adjacent yet its a-nodes lean both ways; "
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
    instance: checking every pair of one instance walks it once. Both
    matchings are found in that lattice, by edge set, before their
    partners are compared. The lattice holds only stable matchings, so
    neither the covering test nor the blocking-pair scan runs here; a
    caller that also runs ``decompose`` or ``meet_join`` on the pair pays
    for one covering verdict per instance and edge set, not one per call.
    """
    adjacent, maxima, alternative = _exact_adjacency(instance, m1, m2, max_edges)
    ab1, ab2 = partner_maps(m1, m2)
    a_rank = instance.a_rank
    leanings = {a_rank[a][ab1[a]] < a_rank[a][ab2[a]] for a in ab1 if ab1[a] != ab2[a]}
    return AdjacencyVerdict(
        adjacent=adjacent,
        uniform=len(leanings) < 2,
        maxima=tuple(maxima),
        alternative=alternative,
    )
