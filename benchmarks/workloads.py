"""The three benchmark workloads: corpora, timed operations and checks.

Each workload turns a seed into a corpus of items with the benchmark's
own random draws; the library only ever receives finished ``Instance``
objects (and weights). ``execute`` is the timed part: a generator that
does one operation per step and yields its ``Outcome``; the harness
times each step. ``check`` runs afterwards, untimed, and
compares every outcome with an answer from ``oracle``, which shares no
code with the library.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import oracle

DEFAULT_SEED = 1

PERMS3 = sorted(permutations(range(3)))


@dataclass
class Item:
    """One unit of closed-loop work and what its checks need to know."""

    kind: str
    a_prefs: tuple[tuple[int, ...], ...]
    b_prefs: tuple[tuple[int, ...], ...]
    instance: Any
    weights: dict | None = None
    # block unions only: the a-nodes of each opposed 2x2 block
    blocks: tuple[frozenset[int], ...] | None = None


@dataclass
class Outcome:
    """The result of one step of ``execute``. A step with ``op`` false is
    timed as part of the wall time but is not an operation of its own."""

    value: Any
    error: BaseException | None = None
    op: bool = True


def _call(fn: Callable[[], Any]) -> Outcome:
    try:
        return Outcome(fn())
    except Exception as exc:  # a failed op is recorded, never fatal
        return Outcome(None, exc)


def _pairs(matching) -> frozenset[tuple[int, int]]:
    return frozenset((e.a, e.b) for e in matching.edges)


def _make(lib: SimpleNamespace, kind: str, a_prefs, b_prefs, **extra) -> Item:
    a_prefs = tuple(tuple(row) for row in a_prefs)
    b_prefs = tuple(tuple(row) for row in b_prefs)
    instance = lib.instances.Instance(len(a_prefs), len(b_prefs), a_prefs, b_prefs)
    return Item(kind, a_prefs, b_prefs, instance, **extra)


def _draw(rng: random.Random, n_a: int, n_b: int, p: float):
    """Each pair is an edge with probability p; lists are shuffled."""
    a_lists: list[list[int]] = [[] for _ in range(n_a)]
    b_lists: list[list[int]] = [[] for _ in range(n_b)]
    for i in range(n_a):
        for j in range(n_b):
            if rng.random() < p:
                a_lists[i].append(j)
                b_lists[j].append(i)
    for row in a_lists + b_lists:
        rng.shuffle(row)
    return a_lists, b_lists


def _relabel(rng: random.Random, a_prefs, b_prefs):
    """Rename both sides by random permutations; returns the a-side map."""
    pa = list(range(len(a_prefs)))
    pb = list(range(len(b_prefs)))
    rng.shuffle(pa)
    rng.shuffle(pb)
    new_a: list = [None] * len(a_prefs)
    new_b: list = [None] * len(b_prefs)
    for i, row in enumerate(a_prefs):
        new_a[pa[i]] = [pb[j] for j in row]
    for j, row in enumerate(b_prefs):
        new_b[pb[j]] = [pa[i] for i in row]
    return new_a, new_b, pa


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- verify -----------------------------------------------------------------


def _complete3(index: int):
    """Complete 3x3 instance number ``index``: six base-6 digits, low digit
    first, pick the six preference permutations."""
    rows = []
    for _ in range(6):
        index, digit = divmod(index, 6)
        rows.append(PERMS3[digit])
    return rows[:3], rows[3:]


class Verify:
    """``verify_instance`` on the acceptance shape of corpus."""

    name = "verify"
    corpus_items = 3000
    warm_items = 3
    round_items = 3
    min_items = 100
    trace_items = 300

    def generate(self, lib, rng: random.Random, count: int) -> list[Item]:
        # Two complete instances per random one: random ones are mostly far
        # cheaper, and at 1:1 the median would sit on the gap between kinds.
        picks = iter(rng.sample(range(6**6), count))
        items = []
        probs = (0.5, 0.8, 1.0)
        for k in range(count):
            if k % 3 != 2:
                items.append(_make(lib, "complete3", *_complete3(next(picks))))
                continue
            while True:
                a_lists, b_lists = _draw(
                    rng, rng.randint(1, 4), rng.randint(1, 4), probs[(k // 3) % 3]
                )
                if sum(map(len, a_lists)) <= 10:
                    break
            items.append(_make(lib, "random", a_lists, b_lists))
        return items

    def execute(self, lib, item: Item) -> Iterator[Outcome]:
        yield _call(lambda: lib.verification.verify_instance(item.instance))

    def check(self, item: Item, outcomes: list[Outcome]) -> list[tuple[str | None, Any]]:
        (result,) = (o.value for o in outcomes)
        stable = oracle.stable_sets(item.a_prefs, item.b_prefs)
        columns = oracle.edge_pairs(item.a_prefs, item.b_prefs)
        if not result.ok:
            return [("verify_instance reports a mismatch", None)]
        points = {tuple(v.point) for v in result.report.vertices}
        if points != {oracle.incidence(columns, m) for m in stable}:
            return [("vertex set differs from the stable incidence vectors", None)]
        if sorted(map(_pairs, result.stable), key=sorted) != stable:
            return [("stable matchings differ from the oracle", None)]
        return [(None, ("verify", tuple(tuple(sorted(m)) for m in stable)))]


# -- lp ---------------------------------------------------------------------


class Lp:
    """``build_system`` then ``optimize`` on seeded rational weights."""

    name = "lp"
    corpus_items = 2000
    warm_items = 3
    min_items = 100
    trace_items = 60
    # One round of (size, lowest edge probability) draws; the probability
    # is drawn up to 1. A solve costs about five times the one a size
    # below, and solves of one size vary by 2x, so a percentile that falls
    # in a size with few solves a run would depend on the seed. Complete
    # 4x4 solves are most of each round, so the median and the 90th
    # percentile both fall inside that class; one 5x5 per round reaches
    # 25 columns. Chosen by resampling measured per-size latencies.
    mix = [(3, 0.8)] * 3 + [(3, 1.0)] * 7 + [(4, 1.0)] * 19 + [(5, 1.0)]
    round_items = len(mix)

    def generate(self, lib, rng: random.Random, count: int) -> list[Item]:
        items = []
        for k in range(count):
            n, low = self.mix[k % len(self.mix)]
            while True:
                a_lists, b_lists = _draw(rng, n, n, rng.uniform(low, 1.0))
                if any(a_lists):
                    break
            item = _make(lib, f"lp{n}", a_lists, b_lists)
            item.weights = {
                lib.instances.Edge(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for i, j in oracle.edge_pairs(item.a_prefs, item.b_prefs)
            }
            items.append(item)
        return items

    def execute(self, lib, item: Item) -> Iterator[Outcome]:
        yield _call(lambda: lib.polytope.build_system(item.instance).optimize(item.weights))

    def check(self, item: Item, outcomes: list[Outcome]) -> list[tuple[str | None, Any]]:
        (result,) = (o.value for o in outcomes)
        stable = oracle.stable_sets(item.a_prefs, item.b_prefs)
        columns = oracle.edge_pairs(item.a_prefs, item.b_prefs)
        if result.status != "optimal" or result.point is None:
            return [(f"status {result.status}", None)]
        if any(x != 0 and x != 1 for x in result.point):
            return [("fractional optimum", None)]
        chosen = frozenset(c for c, x in zip(columns, result.point) if x == 1)
        if chosen not in stable:
            return [("optimum is not a stable matching", None)]
        best = oracle.best_weight(stable, {(e.a, e.b): w for e, w in item.weights.items()})
        if result.value != best:
            return [("optimum value differs from the best stable weight", None)]
        return [(None, ("lp", str(best)))]


# -- lattice ----------------------------------------------------------------


def _blocks(k: int):
    """k opposed 2x2 blocks side by side: 2^k stable matchings."""
    a_prefs, b_prefs = [], []
    for t in range(k):
        lo, hi = 2 * t, 2 * t + 1
        a_prefs += [[lo, hi], [hi, lo]]
        b_prefs += [[hi, lo], [lo, hi]]
    return a_prefs, b_prefs


def _latin(n: int):
    """Cyclic Latin-square preferences: n stable matchings."""
    a_prefs = [[(i + k) % n for k in range(n)] for i in range(n)]
    b_prefs = [[(j + 1 + k) % n for k in range(n)] for j in range(n)]
    return a_prefs, b_prefs


class Lattice:
    """Every stable pair of rich-lattice instances through ``decompose``,
    ``meet_join`` and ``adjacency_verdict``."""

    name = "lattice"
    kinds = ("block2", "block3", "latin3", "latin4", "latin5", "rand4", "rand5")
    round_items = len(kinds)
    corpus_items = 15 * len(kinds)
    warm_items = 1  # one 2-block union; a whole round would dominate set-up
    min_items = 2 * len(kinds)
    trace_items = len(kinds)

    def generate(self, lib, rng: random.Random, count: int) -> list[Item]:
        items = []
        for k in range(count):
            kind = self.kinds[k % len(self.kinds)]
            n = int(kind[-1])
            blocks = None
            if kind.startswith("block"):
                a_prefs, b_prefs = _blocks(n)
            elif kind.startswith("latin"):
                a_prefs, b_prefs = _latin(n)
            else:
                while True:
                    a_prefs, b_prefs = _draw(rng, n, n, 1.0)
                    if oracle.has_two_stable(a_prefs, b_prefs):
                        break
            a_prefs, b_prefs, pa = _relabel(rng, a_prefs, b_prefs)
            if kind.startswith("block"):
                blocks = tuple(frozenset((pa[2 * t], pa[2 * t + 1])) for t in range(n))
            items.append(_make(lib, kind, a_prefs, b_prefs, blocks=blocks))
        return items

    def execute(self, lib, item: Item) -> Iterator[Outcome]:
        inst = item.instance
        limit = len(inst.edges)
        found = _call(lambda: lib.lattice.enumerate_stable(inst, max_edges=limit))
        found.op = False
        yield found
        if found.error is not None:
            return

        # pairs in a fixed order, whatever order the library lists them in
        for m1, m2 in combinations(sorted(found.value, key=lambda m: sorted(_pairs(m))), 2):

            def op():
                return (
                    lib.lattice.decompose(inst, m1, m2),
                    lib.lattice.meet_join(inst, m1, m2),
                    lib.adjacency.adjacency_verdict(inst, m1, m2, max_edges=limit),
                )

            outcome = _call(op)
            outcome.value = (m1, m2, outcome.value)
            yield outcome

    def check(self, item: Item, outcomes: list[Outcome]) -> list[tuple[str | None, Any]]:
        stable = oracle.stable_sets(item.a_prefs, item.b_prefs)
        found = sorted(map(_pairs, outcomes[0].value), key=sorted)
        if found != stable:
            return [("stable matchings differ from the oracle", None)] + [
                ("pair of a wrong stable set", None) for _ in outcomes[1:]
            ]
        verdicts: list[tuple[str | None, Any]] = [
            (None, ("stable", tuple(tuple(sorted(m)) for m in stable)))
        ]
        adjacent = oracle.adjacent_pairs(stable)
        for outcome in outcomes[1:]:
            if outcome.error is not None:
                verdicts.append((None, None))  # the harness reports the exception
                continue
            verdicts.append(self._check_pair(item, stable, adjacent, *outcome.value))
        return verdicts

    def _check_pair(self, item, stable, adjacent, m1, m2, value) -> tuple[str | None, Any]:
        deco, (meet, join), verdict = value
        p1, p2 = _pairs(m1), _pairs(m2)
        expect_adjacent = adjacent[frozenset((p1, p2))]
        if item.blocks is not None:
            differing = sum(
                1 for block in item.blocks if {p for p in p1 if p[0] in block}
                != {p for p in p2 if p[0] in block}
            )
            if expect_adjacent != (differing == 1):
                return ("oracle disagrees with the block rule", None)
        expect_uniform = oracle.comparable(item.a_prefs, p1, p2)
        if verdict.adjacent != expect_adjacent:
            return (f"adjacent={verdict.adjacent}, expected {expect_adjacent}", None)
        if verdict.uniform != expect_uniform:
            return (f"uniform={verdict.uniform}, expected {expect_uniform}", None)
        pieces = [c.edge_set for c in deco.components]
        if frozenset((e.a, e.b) for c in pieces for e in c) != p1 ^ p2 or sum(
            map(len, pieces)
        ) != len(p1 ^ p2):
            return ("components do not partition the difference", None)
        lo, hi = _pairs(meet), _pairs(join)
        if lo not in stable or hi not in stable:
            return ("meet or join is not stable", None)
        if lo & hi != p1 & p2 or lo | hi != p1 | p2 or expect_uniform != ({lo, hi} == {p1, p2}):
            return ("meet and join do not recombine the pair", None)
        return (None, ("pair", tuple(sorted(p1)), tuple(sorted(p2)), expect_adjacent, expect_uniform))


WORKLOADS = {w.name: w for w in (Verify(), Lp(), Lattice())}


def corpus_digest(items: list[Item]) -> str:
    return digest(
        (i.kind, i.a_prefs, i.b_prefs, sorted((tuple(e), w) for e, w in (i.weights or {}).items()))
        for i in items
    )


# Digests of the default-seed corpus and of the semantic results of its
# first ``trace_items`` items, fixed when the benchmark was written.
PINNED: dict[str, tuple[str, str]] = {
    "verify": ("44c06dcb24dcbe20", "3ea77df5d742a8ce"),
    "lp": ("8a91aa2ca5927922", "71c53acd1f094f6e"),
    "lattice": ("264f8268229d4d51", "8a5b8f2a229cea28"),
}
