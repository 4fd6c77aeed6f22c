"""Independent answers the benchmark checks the library against.

Everything here works on raw preference tuples and (a, b) index pairs.
It imports nothing from ``stablepoly``, so a wrong library result cannot
also make its own expected answer wrong. Speed matters only because the
checks run after every timed run; clarity still comes first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Pair = tuple[int, int]
StableSet = frozenset[Pair]


def edge_pairs(a_prefs, b_prefs) -> list[Pair]:
    """Mutually listed (a, b) pairs, sorted like the library's columns."""
    return sorted((i, j) for i, row in enumerate(a_prefs) for j in row if i in b_prefs[j])


def _ranks(table) -> list[dict[int, int]]:
    return [{other: r for r, other in enumerate(row)} for row in table]


def stable_sets(a_prefs, b_prefs) -> list[StableSet]:
    """Every stable matching, by walking all matchings, sorted.

    A matching is stable when no edge outside it is preferred by both
    endpoints to their partners, being unmatched counting as worst.
    """
    edges = edge_pairs(a_prefs, b_prefs)
    a_rank, b_rank = _ranks(a_prefs), _ranks(b_prefs)
    edge_set = set(edges)
    options = [[j for j in row if (i, j) in edge_set] for i, row in enumerate(a_prefs)]
    n_a = len(a_prefs)
    a_partner: list[int | None] = [None] * n_a
    b_partner: dict[int, int] = {}
    found: list[StableSet] = []

    def blocked() -> bool:
        for i, j in edges:
            if a_partner[i] == j:
                continue
            mine = a_partner[i]
            theirs = b_partner.get(j)
            if (mine is None or a_rank[i][j] < a_rank[i][mine]) and (
                theirs is None or b_rank[j][i] < b_rank[j][theirs]
            ):
                return True
        return False

    def extend(i: int) -> None:
        if i == n_a:
            if not blocked():
                found.append(frozenset((k, a_partner[k]) for k in range(n_a) if a_partner[k] is not None))
            return
        extend(i + 1)
        for j in options[i]:
            if j in b_partner:
                continue
            a_partner[i] = j
            b_partner[j] = i
            extend(i + 1)
            del b_partner[j]
            a_partner[i] = None

    extend(0)
    return sorted(found, key=sorted)


def proposal_outcome(proposer_prefs, receiver_prefs) -> frozenset[Pair]:
    """Deferred acceptance as (proposer, receiver) pairs.

    Used only to filter random draws down to those with at least two
    stable matchings (the two proposal outcomes differ exactly then).
    """
    rank = _ranks(receiver_prefs)
    held: dict[int, int] = {}
    nxt = [0] * len(proposer_prefs)
    free = list(range(len(proposer_prefs)))
    while free:
        p = free.pop()
        row = proposer_prefs[p]
        while nxt[p] < len(row):
            r = row[nxt[p]]
            nxt[p] += 1
            if p not in rank[r]:
                continue
            cur = held.get(r)
            if cur is None or rank[r][p] < rank[r][cur]:
                held[r] = p
                if cur is not None:
                    free.append(cur)
                break
    return frozenset((p, r) for r, p in held.items())


def has_two_stable(a_prefs, b_prefs) -> bool:
    a_best = proposal_outcome(a_prefs, b_prefs)
    b_best = frozenset((i, j) for j, i in proposal_outcome(b_prefs, a_prefs))
    return a_best != b_best


def best_weight(stable: list[StableSet], weights: dict[Pair, Fraction]) -> Fraction:
    return max(sum((weights[p] for p in m), Fraction(0)) for m in stable)


def incidence(columns: list[Pair], m: StableSet) -> tuple[int, ...]:
    return tuple(1 if p in m else 0 for p in columns)


def comparable(a_prefs, m1: StableSet, m2: StableSet) -> bool:
    """Whether every a-node weakly prefers the same one of the two.

    For stable matchings this is the lattice order, and it holds exactly
    when every component of the difference leans the same way.
    """
    rank = _ranks(a_prefs)
    p1, p2 = dict(m1), dict(m2)
    leanings = set()
    for i in range(len(a_prefs)):
        x, y = p1.get(i), p2.get(i)
        if x != y:
            leanings.add(1 if y is None or (x is not None and rank[i][x] < rank[i][y]) else 2)
    return len(leanings) <= 1


def adjacent_pairs(stable: list[StableSet]) -> dict[frozenset[StableSet], bool]:
    """Adjacency of every stable pair by the incidence-sum rule.

    A pair is adjacent exactly when no other stable pair has the same
    edge-wise incidence sum. One direction is plain geometry (a second
    pair with that sum decomposes the midpoint another way); the other
    holds because the region is affinely an order polytope over the
    rotation poset, where a comparable pair whose difference splits into
    independent parts always has such a second pair.
    """
    sums: dict[tuple, int] = {}
    key = {}
    for m1, m2 in combinations(stable, 2):
        total = tuple(sorted((p, (p in m1) + (p in m2)) for p in m1 | m2))
        key[frozenset((m1, m2))] = total
        sums[total] = sums.get(total, 0) + 1
    return {pair: sums[total] == 1 for pair, total in key.items()}
