"""Instance families that more than one test module draws on.

Test modules take shared corpora from here and never import one
another, so an import error in one test module cannot take another
down at collection.
"""

import itertools
import random

from stablepoly.instances import Instance
from stablepoly.lattice import enumerate_stable

PERMS3 = sorted(itertools.permutations(range(3)))


def complete3(index: int) -> Instance:
    """Decode one complete 3x3 instance from its table index.

    Six base-6 digits pick the six permutations, low digit first; the
    encoding is a bijection onto the 46656-member family.
    """
    rows = []
    k = index
    for _ in range(6):
        k, digit = divmod(k, 6)
        rows.append(PERMS3[digit])
    return Instance(3, 3, tuple(rows[:3]), tuple(rows[3:]))


def blocks(k):
    """k opposed 2x2 blocks side by side: 2^k stable matchings."""
    a_prefs, b_prefs = [], []
    for t in range(k):
        lo, hi = 2 * t, 2 * t + 1
        a_prefs += [(lo, hi), (hi, lo)]
        b_prefs += [(hi, lo), (lo, hi)]
    return Instance(2 * k, 2 * k, tuple(a_prefs), tuple(b_prefs))


def latin(n):
    """Cyclic Latin-square preferences: the n shifted diagonals are stable."""
    a_prefs = tuple(tuple((i + k) % n for k in range(n)) for i in range(n))
    b_prefs = tuple(tuple((j + 1 + k) % n for k in range(n)) for j in range(n))
    return Instance(n, n, a_prefs, b_prefs)


def draw(rng, a_count, b_count, p):
    """Random lists over 0..count-1 per side: each pair is an edge with
    probability ``p``, listed by both ends, and every list is shuffled."""
    a_lists = [[] for _ in range(a_count)]
    b_lists = [[] for _ in range(b_count)]
    for i in range(a_count):
        for j in range(b_count):
            if rng.random() >= p:
                continue
            # a second roll per pair that nothing reads: it keeps each
            # seed's stream, so the pinned corpora keep their pairs
            rng.random()
            a_lists[i].append(j)
            b_lists[j].append(i)
    for lst in a_lists + b_lists:
        rng.shuffle(lst)
    return Instance(
        a_count, b_count, tuple(map(tuple, a_lists)), tuple(map(tuple, b_lists))
    )


def golden_instances():
    """Rich lattices: block unions (k = 2 is the opposed4 fixture), cyclic
    Latin squares, and seeded complete 4x4/5x5 draws with at least three
    stable matchings (with two there is no rival to score)."""
    yield "blocks2", blocks(2)
    yield "blocks3", blocks(3)
    for n in (4, 5, 6):
        yield f"latin{n}", latin(n)
    rng = random.Random(808)
    for n, wanted in ((4, 20), (5, 20)):
        kept = 0
        while kept < wanted:
            inst = Instance(
                n,
                n,
                tuple(tuple(rng.sample(range(n), n)) for _ in range(n)),
                tuple(tuple(rng.sample(range(n), n)) for _ in range(n)),
            )
            if len(enumerate_stable(inst, max_edges=n * n)) >= 3:
                yield f"rand{n}.{kept}", inst
                kept += 1
