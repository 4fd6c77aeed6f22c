"""End-to-end acceptance run: eight checks, one printed line each.

Every check prints its verdict on the real stdout so even a quiet
pytest run shows the eight lines. All comparisons are exact equalities
over rationals; there are no tolerances anywhere in this file.

The corpus is fixed-seed throughout: the complete 2x2 family is taken
whole, the complete 3x3 family is sampled by index (full exhaustion of
all 46656 instances plus the pairwise checks that reuse them does not
fit the time budget on one core; the sample is decoded from indices so
the run never materializes the rest), criterion 1 also verifies a
fixed-seed sample of complete 4x4 instances at 16 columns, and the
random family redraws until the edge budget holds. Criteria 4-6 also run on the rich-lattice
family of ``corpora.golden_instances``, which reaches the non-adjacent
and mixed-orientation pairs that the families above never produce.
"""

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from stablepoly import adjacency as adjacency_mod
from stablepoly import lattice as lattice_mod
from stablepoly import matchings as matchings_mod
from stablepoly import polytope as polytope_mod
from stablepoly.adjacency import adjacency_verdict
from stablepoly.instances import (
    Instance,
    SIDE_A,
    SIDE_B,
    exhaustive_complete,
    instance_from_json,
    random_instance,
)
from stablepoly.lattice import (
    SwapStabilityError,
    UniformityError,
    decompose,
    enumerate_stable,
    meet_join,
)
from stablepoly.matchings import Matching, gale_shapley, is_stable
from stablepoly.polytope import build_system
from stablepoly.verification import verify_instance

from corpora import complete3, golden_instances
from oracles import dominance_witness, max_weight_stable, midpoint_maxima

SEED = 20260819
SAMPLE_3X3 = 2500
SAMPLE_4X4 = 200
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def announce(request):
    """One verdict line per criterion, written past the capture layer."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    return _announce


@pytest.fixture(scope="session")
def complete_corpus():
    corpus = list(exhaustive_complete(2))
    rng = random.Random(SEED)
    picks = sorted(rng.sample(range(6**6), SAMPLE_3X3))
    corpus.extend(complete3(k) for k in picks)
    return corpus


@pytest.fixture(scope="session")
def complete4_results():
    """Fixed-seed complete 4x4 instances, verified at 16 columns. Kept
    out of ``complete_corpus`` so that only criterion 1 runs on them."""
    rng = random.Random(SEED + 1)
    corpus = [random_instance(4, 4, 1.0, rng) for _ in range(SAMPLE_4X4)]
    return [verify_instance(inst, max_edges=16) for inst in corpus]


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(SEED)
    probs = (0.5, 0.8, 1.0)
    corpus = []
    while len(corpus) < 500:
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        inst = random_instance(a, b, probs[len(corpus) % 3], rng)
        if len(inst.edges) <= 10:
            corpus.append(inst)
    return corpus


@pytest.fixture(scope="session")
def complete_results(complete_corpus):
    return [verify_instance(inst) for inst in complete_corpus]


@pytest.fixture(scope="session")
def random_results(random_corpus):
    return [verify_instance(inst) for inst in random_corpus]


@pytest.fixture(scope="session")
def all_results(complete_results, random_results):
    return complete_results + random_results


@pytest.fixture(scope="session")
def rich_lattices():
    """Each rich-lattice instance with its stable matchings."""
    return [
        (inst, enumerate_stable(inst, max_edges=len(inst.edges)))
        for _, inst in golden_instances()
    ]


@pytest.fixture(scope="session")
def stable_lists(all_results, rich_lattices):
    """(instance, stable matchings) for criteria 4-6."""
    return [(r.instance, r.stable) for r in all_results] + rich_lattices


def test_criterion_1_complete_families(complete_results, complete4_results, announce):
    results = complete_results + complete4_results
    bad = [r for r in results if not r.ok]
    fractional = sum(len(r.fractional) for r in results)
    ok = not bad and fractional == 0
    announce(
        1,
        ok,
        f"all 16 complete 2x2, {SAMPLE_3X3} fixed-seed complete 3x3 and "
        f"{SAMPLE_4X4} fixed-seed complete 4x4 instances (16 columns): "
        f"vertex set equals stable set on each, {fractional} fractional vertices",
    )
    assert ok, [r.to_json() for r in bad[:3]]


def test_criterion_2_random_family(random_results, announce):
    bad = [r for r in random_results if not r.ok]
    fractional = sum(len(r.fractional) for r in random_results)
    ok = not bad and fractional == 0
    announce(
        2,
        ok,
        f"{len(random_results)} fixed-seed random instances up to 4x4 with at most "
        f"10 edges: 0 set mismatches, {fractional} fractional vertices",
    )
    assert ok, [r.to_json() for r in bad[:3]]


def test_criterion_3_lp_integrality(announce):
    rng = random.Random(SEED + 3)
    probs = (0.5, 0.8, 1.0)
    problems = []
    checked = 0
    while checked < 1000:
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        inst = random_instance(a, b, probs[checked % 3], rng)
        if len(inst.edges) > 10:
            continue
        system = build_system(inst)
        weights = {
            e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in system.columns
        }
        checked += 1
        result = system.optimize(weights)
        if result.status != "optimal" or result.point is None:
            problems.append((inst, result.status))
            continue
        if any(x != 0 and x != 1 for x in result.point):
            problems.append((inst, result.point))
            continue
        chosen = Matching.from_edges(
            [e for e, x in zip(system.columns, result.point) if x == 1]
        )
        oracle = max_weight_stable(
            inst, {(e.a, e.b): w for e, w in weights.items()}
        )
        if not is_stable(inst, chosen) or result.value != oracle:
            problems.append((inst, result.value, oracle))
    ok = not problems
    announce(
        3,
        ok,
        f"{checked} random weighted relaxations: every optimum is a 0/1 point, "
        "is a stable matching, and matches the brute-force best weight exactly",
    )
    assert ok, problems[:3]


def test_criterion_4_orientation_uniformity(stable_lists, announce):
    pairs = 0
    components = 0
    problems = []
    for inst, stable in stable_lists:
        for m1, m2 in itertools.combinations(stable, 2):
            try:
                deco = decompose(inst, m1, m2)
            except UniformityError as exc:
                problems.append(exc.certificate)
                continue
            pairs += 1
            components += len(deco.components)
    ok = not problems
    announce(
        4,
        ok,
        f"{components} difference components across {pairs} stable pairs: "
        "inside each component every a-node prefers the same matching",
    )
    assert ok, problems[:3]


def test_criterion_5_swap_closure(stable_lists, announce):
    pairs = 0
    problems = []
    for inst, stable in stable_lists:
        columns = inst.canonical_edges()
        for m1, m2 in itertools.combinations(stable, 2):
            try:
                meet, join = meet_join(inst, m1, m2)
            except SwapStabilityError as exc:
                problems.append(exc.certificate)
                continue
            if not is_stable(inst, meet) or not is_stable(inst, join):
                problems.append((inst, "swap result unstable"))
                continue
            for e in columns:
                lhs = (e in m1.edges) + (e in m2.edges)
                rhs = (e in meet.edges) + (e in join.edges)
                if lhs != rhs:
                    problems.append((inst, "midpoint identity broken", e))
                    break
            pairs += 1
    ok = not problems
    announce(
        5,
        ok,
        f"{pairs} stable pairs: both one-sided swaps are stable and the pair "
        "and its swaps cover every edge with identical total incidence",
    )
    assert ok, problems[:3]


def as_pairs(matching):
    return tuple(sorted((e.a, e.b) for e in matching.edges))


def lp_disagreements(inst, m1, m2, verdict):
    """How a verdict departs from the midpoint LP over the brute-force
    stable pool: its rival maxima, the adjacency they imply, and its
    alternative decomposition of the midpoint."""
    problems = []
    maxima = [(as_pairs(m), v) for m, v in verdict.maxima]
    if maxima != midpoint_maxima(inst, as_pairs(m1), as_pairs(m2)):
        problems.append((inst, "rival maxima differ from the LP oracle", maxima))
    if verdict.adjacent != all(v == 0 for _, v in verdict.maxima):
        problems.append((inst, "adjacent disagrees with the rival maxima", maxima))
    alternative = verdict.alternative
    if (alternative is None) != verdict.adjacent:
        problems.append((inst, "alternative present exactly when not adjacent", alternative))
    elif alternative is not None:
        mixes = {
            e: sum((w for m, w in alternative.items() if e in m.edges), Fraction(0))
            for e in inst.canonical_edges()
        }
        midpoint = {e: Fraction((e in m1.edges) + (e in m2.edges), 2) for e in mixes}
        if (
            sum(alternative.values()) != 1
            or min(alternative.values()) <= 0
            or not set(alternative) - {m1, m2}
            or mixes != midpoint
        ):
            problems.append((inst, "alternative is no rival decomposition", alternative))
    return problems


def test_criterion_6_adjacency_implications(stable_lists, rich_lattices, announce):
    pairs = 0
    problems = []
    for inst, stable in stable_lists:
        for m1, m2 in itertools.combinations(stable, 2):
            try:
                verdict = adjacency_verdict(inst, m1, m2, max_edges=len(inst.edges))
            except AssertionError as exc:
                problems.append((inst, str(exc)))
                continue
            pairs += 1
            if verdict.adjacent and not verdict.uniform:
                problems.append((inst, "adjacent but mixed orientation"))
            # stability forbids an in-graph witness: the weak matching
            # would have to contain the edge, putting both endpoints in
            # one component that leans the strong way
            witness = dominance_witness(inst, m1.edges, m2.edges)
            if witness is not None:
                problems.append((inst, "in-graph dominance witness", witness))
                if verdict.adjacent:
                    problems.append((inst, "adjacent despite witness"))

    # with no in-graph witness possible, the scan's non-vacuity is shown
    # on a derived pair: delete one edge, keep its rank in the host, and
    # the leftover dominance separates the pair
    with open(FIXTURES / "witness_pair.json") as fh:
        doc = json.load(fh)
    host = instance_from_json(doc["host"])
    a_name, b_name = doc["removed_edge"].split()
    pivot = (host.node_by_name(a_name).index, host.node_by_name(b_name).index)
    reduced = Instance(
        host.a_count,
        host.b_count,
        tuple(tuple(j for j in ps if (i, j) != pivot) for i, ps in enumerate(host.a_prefs)),
        tuple(tuple(i for i in ps if (i, j) != pivot) for j, ps in enumerate(host.b_prefs)),
        host.a_names,
        host.b_names,
    )
    w1 = Matching.from_pairs(reduced, [p.split() for p in doc["m1"]])
    w2 = Matching.from_pairs(reduced, [p.split() for p in doc["m2"]])
    witness = dominance_witness(host, w1.edges, w2.edges)
    fixture_ok = (
        witness == (pivot, doc["dominant"])
        and is_stable(reduced, w1)
        and is_stable(reduced, w2)
        and not adjacency_verdict(reduced, w1, w2).adjacent
        and dominance_witness(reduced, w1.edges, w2.edges) is None
    )
    if not fixture_ok:
        problems.append(("derived fixture", witness))

    # the rich lattices reach non-adjacent and mixed pairs; there each
    # verdict is held against the midpoint LP, one maximum per rival
    rich_pairs = nonadjacent = mixed = 0
    for inst, stable in rich_lattices:
        for m1, m2 in itertools.combinations(stable, 2):
            verdict = adjacency_verdict(inst, m1, m2, max_edges=len(inst.edges))
            rich_pairs += 1
            nonadjacent += not verdict.adjacent
            mixed += not verdict.uniform
            problems.extend(lp_disagreements(inst, m1, m2, verdict))
    if not (nonadjacent and mixed):
        problems.append(("rich lattices", "no non-adjacent or no mixed pair", nonadjacent, mixed))

    ok = not problems
    announce(
        6,
        ok,
        f"{pairs} stable pairs: adjacency always implies uniform leanings and "
        "no pair has an in-graph dominance witness, as stability forces; on "
        f"the {rich_pairs} rich-lattice pairs ({nonadjacent} non-adjacent, "
        f"{mixed} mixed) every rival maximum equals the midpoint LP's and each "
        "alternative decomposes the midpoint; the derived deleted-edge pair "
        "fires the detector",
    )
    assert ok, problems[:3]


def _partners(matching, side):
    """Each node of ``side`` that ``matching`` covers, by index, to its
    partner's index."""
    if side == SIDE_A:
        return {e.a: e.b for e in matching.edges}
    return {e.b: e.a for e in matching.edges}


def test_criterion_7_proposer_optimality(complete_results, announce):
    checked = 0
    problems = []
    for result in complete_results:
        inst = result.instance
        for side in (SIDE_A, SIDE_B):
            rank = inst.a_rank if side == SIDE_A else inst.b_rank
            best = _partners(gale_shapley(inst, side), side)
            for m in result.stable:
                theirs = _partners(m, side)
                for node in range(len(rank)):
                    mine, other = best.get(node), theirs.get(node)
                    if mine != other and not rank[node][mine] < rank[node][other]:
                        problems.append((inst, side, node))
        checked += 1
    ok = not problems
    announce(
        7,
        ok,
        f"{checked} complete instances: each proposing side's deferred-acceptance "
        "partner is node-wise weakly best across every stable matching",
    )
    assert ok, problems[:3]


def test_criterion_8_independent_routes_agree(all_results, announce):
    problems = []
    for result in all_results:
        system = build_system(result.instance)
        combinatorial = {system.incidence_vector(m) for m in result.stable}
        geometric = {v.point for v in result.report.vertices if v.integral}
        if combinatorial != geometric:
            problems.append(result.instance)

    # the agreement only means something if the two routes share nothing
    # beyond the instance model, so pin that down statically
    geometry_src = Path(polytope_mod.__file__).read_text(encoding="utf-8")
    for name in (
        "is_stable",
        "blocking_pairs",
        "gale_shapley",
        "enumerate_stable",
        "matchings_iter",
    ):
        if re.search(rf"\b{name}\b", geometry_src):
            problems.append(f"geometry module mentions {name}")
    for mod in (matchings_mod, lattice_mod, adjacency_mod):
        src = Path(mod.__file__).read_text(encoding="utf-8")
        for banned in ("polytope", "simplex", "linalg"):
            if re.search(rf"\bfrom\s+\.{banned}\b|\bimport\s+\.?{banned}\b", src):
                problems.append(f"{mod.__name__} imports {banned}")

    ok = not problems
    announce(
        8,
        ok,
        f"{len(all_results)} instances: the matching search and the vertex "
        "geometry, which share only the instance model, produce identical sets",
    )
    assert ok, problems[:3]
