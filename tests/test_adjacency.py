import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from stablepoly import lattice
from stablepoly.adjacency import AdjacencyVerdict, adjacency_verdict
from stablepoly.instances import Edge, instance_from_json, random_instances
from stablepoly.lattice import enumerate_stable
from stablepoly.matchings import Matching

from corpora import golden_instances
from oracles import convex_decompose, dominance_witness

F = Fraction
HALF = F(1, 2)


def opposed4_pair(instance):
    m1 = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 3), Edge(3, 2)])
    m2 = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 2), Edge(3, 3)])
    return m1, m2


def test_uniformly_oriented(opposed2, opposed4):
    m1, m2 = enumerate_stable(opposed2)
    assert adjacency_verdict(opposed2, m1, m2).uniform
    n1, n2 = opposed4_pair(opposed4)
    assert not adjacency_verdict(opposed4, n1, n2).uniform


def test_witness_scan_is_empty_for_stable_pairs(opposed4):
    """Two stable matchings never leave an in-graph edge that one beats
    twice and the other never: the weak matching would have to contain
    the edge, putting both endpoints in one component that leans the
    strong way. The oracle scan checks the vacuity instead of assuming it."""
    m1, m2 = opposed4_pair(opposed4)
    assert dominance_witness(opposed4, m1.edges, m2.edges) is None
    stream = random_instances(4, 4, 0.7, seed=412)
    for inst in itertools.islice(stream, 30):
        stable = enumerate_stable(inst)
        for p, q in itertools.combinations(stable, 2):
            assert dominance_witness(inst, p.edges, q.edges) is None


def fixture_pair(doc):
    host = instance_from_json(doc["host"])
    m1 = Matching.from_pairs(host, [p.split() for p in doc["m1"]])
    m2 = Matching.from_pairs(host, [p.split() for p in doc["m2"]])
    return host, m1, m2


def test_dominance_witness_derived_fixture(witness_fixture):
    """On the host's ranks the oracle scan finds the deleted edge, with
    the recorded dominant side; criterion 6 checks the reduced instance."""
    host, m1, m2 = fixture_pair(witness_fixture)
    a_name, b_name = witness_fixture["removed_edge"].split()
    edge = (host.node_by_name(a_name).index, host.node_by_name(b_name).index)
    assert dominance_witness(host, m1.edges, m2.edges) == (edge, witness_fixture["dominant"])


def test_dominance_witness_role_swap(witness_fixture):
    host, m1, m2 = fixture_pair(witness_fixture)
    assert dominance_witness(host, m2.edges, m1.edges) == ((1, 2), 2)


def test_dominance_witness_misses(witness_fixture):
    host, m1, m2 = fixture_pair(witness_fixture)
    # against other matchings the pair leaves no certificate: each side
    # uses edges the scan would need it to avoid
    join = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 2), Edge(3, 3)])
    meet = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 3), Edge(3, 2)])
    assert dominance_witness(host, m1.edges, join.edges) is None
    assert dominance_witness(host, meet.edges, m2.edges) is None


def test_convex_decompose_midpoint(opposed2):
    m1, m2 = enumerate_stable(opposed2)
    columns = opposed2.canonical_edges()
    mid = tuple(
        HALF * ((e in m1.edges) + (e in m2.edges)) for e in columns
    )
    weights = convex_decompose(opposed2, mid)
    assert weights == {m1.edges: HALF, m2.edges: HALF}
    # banning either endpoint leaves nothing: the pair is adjacent
    assert convex_decompose(opposed2, mid, forbidden=[m1.edges]) is None
    assert convex_decompose(opposed2, mid, forbidden=[m2.edges]) is None


def test_convex_decompose_rival_route(opposed4):
    m1, m2 = opposed4_pair(opposed4)
    columns = opposed4.canonical_edges()
    mid = tuple(
        HALF * ((e in m1.edges) + (e in m2.edges)) for e in columns
    )
    other = convex_decompose(opposed4, mid, forbidden=[m1.edges, m2.edges])
    assert other is not None
    assert sum(other.values()) == 1
    assert set(other) == {m.edges for m in enumerate_stable(opposed4)} - {m1.edges, m2.edges}
    assert all(w == HALF for w in other.values())


def test_convex_decompose_validates(opposed2):
    with pytest.raises(ValueError):
        convex_decompose(opposed2, (HALF,))
    m1, m2 = enumerate_stable(opposed2)
    point = opposed2.canonical_edges()
    # a vertex point with every matching banned has no decomposition
    vec = tuple(F(1) if e in m1.edges else F(0) for e in point)
    assert convex_decompose(opposed2, vec, forbidden=[m1.edges, m2.edges]) is None


def test_are_adjacent(opposed2, opposed4):
    m1, m2 = enumerate_stable(opposed2)
    assert adjacency_verdict(opposed2, m1, m2).adjacent
    n1, n2 = opposed4_pair(opposed4)
    assert not adjacency_verdict(opposed4, n1, n2).adjacent
    with pytest.raises(ValueError, match="distinct"):
        adjacency_verdict(opposed2, m1, m1)
    unstable = Matching.from_edges([Edge(0, 0)])
    with pytest.raises(ValueError, match="stable"):
        adjacency_verdict(opposed2, m1, unstable)


def test_verdict_reads_matchings_by_edge_set():
    """Inputs equal to the lattice's matchings but built anew give the
    same verdict bytes; equal edge sets are one matching, and a matching
    outside the lattice is refused."""
    for _, inst in itertools.islice(golden_instances(), 3):
        stable = enumerate_stable(inst)
        for m1, m2 in itertools.combinations(stable, 2):
            want = adjacency_verdict(inst, m1, m2).to_json(inst)
            n1 = Matching(m1.edges)
            n2 = Matching.from_pairs(inst, m2.to_pairs(inst))
            assert n2.edges is not m2.edges
            assert adjacency_verdict(inst, n1, n2).to_json(inst) == want
            assert adjacency_verdict(inst, m1, n2).to_json(inst) == want
        for m in stable:
            with pytest.raises(ValueError, match="two distinct matchings"):
                adjacency_verdict(inst, m, Matching(m.edges))
        unstable = Matching(frozenset({min(inst.edges)}))
        with pytest.raises(ValueError, match="stable matchings only"):
            adjacency_verdict(inst, stable[0], unstable)
        with pytest.raises(ValueError, match="stable matchings only"):
            adjacency_verdict(inst, unstable, stable[0])


def test_verdict_scans_no_blocking_pair(monkeypatch, opposed4):
    # the pair is found in the stable lattice first, so splitting its
    # difference does not check stability a second time
    stable = enumerate_stable(opposed4)
    scans = []
    real = lattice.blocking_pairs
    monkeypatch.setattr(lattice, "blocking_pairs", lambda *a: scans.append(a) or real(*a))
    verdicts = [adjacency_verdict(opposed4, p, q) for p, q in itertools.combinations(stable, 2)]
    assert len(verdicts) == 6 and not all(v.uniform for v in verdicts)
    assert scans == []
    with pytest.raises(ValueError, match="stable"):
        adjacency_verdict(opposed4, stable[0], Matching.from_edges([Edge(0, 0)]))


def test_adjacent_pairs_on_lattice_neighbours(opposed4):
    """Flipping a single difference component of the four-matching square
    moves to an adjacent vertex; the diagonal is the non-edge."""
    stable = enumerate_stable(opposed4)
    m1, m2 = opposed4_pair(opposed4)
    join = Matching.from_edges([Edge(0, 0), Edge(1, 1), Edge(2, 2), Edge(3, 3)])
    meet = Matching.from_edges([Edge(0, 1), Edge(1, 0), Edge(2, 3), Edge(3, 2)])
    assert set(stable) == {m1, m2, meet, join}
    assert adjacency_verdict(opposed4, m1, join).adjacent
    assert adjacency_verdict(opposed4, m1, meet).adjacent
    assert adjacency_verdict(opposed4, m2, join).adjacent
    assert adjacency_verdict(opposed4, m2, meet).adjacent
    assert not adjacency_verdict(opposed4, meet, join).adjacent


def test_verdict_golden(opposed2, opposed4):
    m1, m2 = enumerate_stable(opposed2)
    verdict = adjacency_verdict(opposed2, m1, m2)
    assert verdict.adjacent and verdict.uniform
    assert verdict.maxima == ()
    assert verdict.alternative is None

    n1, n2 = opposed4_pair(opposed4)
    verdict = adjacency_verdict(opposed4, n1, n2)
    assert not verdict.adjacent and not verdict.uniform
    assert len(verdict.maxima) == 2
    assert all(v == HALF for _, v in verdict.maxima)
    assert verdict.alternative is not None

    doc = verdict.to_json(opposed4)
    assert doc["adjacent"] is False
    assert doc["uniformly_oriented"] is False
    assert "witness" not in doc
    assert set(doc["rival_maxima"].values()) == {"1/2"}


def test_verdict_rejects_inconsistent_routes():
    with pytest.raises(AssertionError):
        AdjacencyVerdict(
            adjacent=True,
            uniform=False,
            maxima=(),
            alternative=None,
        )


def test_adjacency_implies_uniformity_everywhere():
    # dense 5x5 draws: random preference tables only rarely produce
    # incomparable stable pairs, and those are the interesting ones here
    stream = random_instances(5, 5, 1.0, seed=413)
    seen_nonuniform = 0
    for inst in itertools.islice(stream, 25):
        stable = enumerate_stable(inst, max_edges=25)
        for p, q in itertools.combinations(stable, 2):
            verdict = adjacency_verdict(inst, p, q, max_edges=25)
            if verdict.adjacent:
                assert verdict.uniform
            if not verdict.uniform:
                seen_nonuniform += 1
                assert not verdict.adjacent
                assert verdict.alternative is not None
    assert seen_nonuniform >= 1


def verdict_digest(inst):
    """sha256 over the verdict JSON of every stable pair, in enumeration order.

    The digests were taken while the verdict JSON still held a
    ``"witness"`` key after ``"uniformly_oriented"``, null on every stable
    pair; it is put back in its place before hashing.
    """
    limit = len(inst.edges)
    digest = hashlib.sha256()
    for m1, m2 in itertools.combinations(enumerate_stable(inst, max_edges=limit), 2):
        doc = adjacency_verdict(inst, m1, m2, max_edges=limit).to_json(inst)
        items = list(doc.items())
        items.insert(list(doc).index("uniformly_oriented") + 1, ("witness", None))
        digest.update(json.dumps(dict(items)).encode() + b"\n")
    return digest.hexdigest()


# Digests of ``verdict_digest`` per instance, computed when every rival's
# maximum still came from its own midpoint LP. ``test_verdict_golden``
# never pins the ``alternative`` point; these do, and with the rival
# maxima they are what the incidence-sum rule must reproduce byte for byte.
VERDICT_DIGESTS = {
    "blocks2": "83a9aaf2ad8d872ef3e074e950f08e8520e8dd8f8844d6738f6c9e626d7107af",
    "blocks3": "ecb072015850462a76d76d886b486e9c561f5199ce77e19ced1d8f8eb2f74b7a",
    "latin4": "8c500a3ccd920bb093054b98ece068c6b10aa2a0a2e889ccc676c71e5e38585e",
    "latin5": "27608cec646f6204ad706850c4fbe14bf176c48d0968322efd6262de953499b8",
    "latin6": "405fe123105ba9e031af319f12b7e788eb9d3237ba0732125a572c342d7c0869",
    "rand4.0": "0cda23844a99e8423382dad0e58f5bfc3c5e3fc9821df90bede8ec1b9bf67fb9",
    "rand4.1": "1e618ed73a143c6d4ce20c92d6e6a6973d9cfc47a86beca3b54f0fd370b8d3ef",
    "rand4.2": "731d94f807536ca2afab2517d3b3dbaf64ab6edf1fa83c1414bad2a96e4382f1",
    "rand4.3": "aa61ea07d0261439873bba23f29c0f464104ffce46621b7b2a487246a38d6eee",
    "rand4.4": "46f179ecd7b5c5d379458f741cb6ca486812ebae00e0eb4fb5b106d98b06ad1c",
    "rand4.5": "a1092e52763f3f8ff2b35e3b432747da41d4ef633e2c66b8245e10c1108c677e",
    "rand4.6": "0f910bfe97f0641ae7b2038326f3df5db01a2c85ad21481c29ff70d3677593fb",
    "rand4.7": "c1565cb745782c935e5b7779c2bc5fc5a7b289733e7d23c835579f0dbec4177b",
    "rand4.8": "2494079fd4f27854ed978c028dbb913e9631192231512d5bb49ad3420654d168",
    "rand4.9": "72a886db692686f9b3005cb33647ebbf0ed404e1b7edd726e9699cf2ca9fb71f",
    "rand4.10": "f1fa8fcc6274f7d38a5e068444d4567c056449ff11bbd365e632c3c622560baa",
    "rand4.11": "59f8332ad25fbdeeaacbaecbe10a324988339fcd228adcd5cd7f06ccb82d44f8",
    "rand4.12": "645a1278fcc710e6da0900f30c136f652f7f08bebe0f337b9a84b574b8ae76bf",
    "rand4.13": "6f04165b9563441b5d6d963184702b7de1b5bc4854b2add960a1c4cb34367d31",
    "rand4.14": "fe0c4fed7379dfd64f9ad9f6d10904f7bbd90b9b540e1cb69797aa8e206b2297",
    "rand4.15": "a4687e8c51d25be5feaf45fbdee11511e0c0b322833aeb05c8aa4f315a1e73e2",
    "rand4.16": "fdd2cee027f217b2d1536552c85ba5889b90d8b1585e6c24e280ee5d9bc64b61",
    "rand4.17": "4ef474c1c0f69f0089dd6b92ebb6b52713a9c73ee0e70101ad8713ef5b239fb9",
    "rand4.18": "966990004e670667a322e1d1372d48e0f686065d83a1e14209ea010ffc26c7fb",
    "rand4.19": "79f5db069452ce4bb987b4339dce5db85249a51b0a25607aab9eac40f084bd09",
    "rand5.0": "809a0f787a828bd5ed2efa2adced41ba6ae53d0f5171d84741019313ab8caeda",
    "rand5.1": "5bd23416e18615d40495007c0e8fe96a77d3023c8aeb1c9346f70013570c5405",
    "rand5.2": "dd5dc4a27dba6510fe665879031687a50967085e8ed1c17788b3cc4e64e9a9c6",
    "rand5.3": "3e42590013cc92b0bc99a6fd196835f9b856a7d8e717a7327317bb67f5b9ab45",
    "rand5.4": "ee5aadec6fb3bc7dbe2ec7173f13d5a25cea5ff740fce30efed93194b3fbbf8c",
    "rand5.5": "8c4c853fe6c0fe38f6ea10f961f7a7f2f3b4b26abbe26f9e533f4d85276c6016",
    "rand5.6": "209ed724d1e116621eda758167fbb50ed9c96847b3d3f00a422c16c5527cfc28",
    "rand5.7": "15bb68f53640fe97cf44effc817eaf33268ffa0ce0f502127a07a2eea505e25b",
    "rand5.8": "e6cadf6520ea1f8e1097347910b3bad9dac4ebe6346f04b098a54d6b57559fba",
    "rand5.9": "573f4046890ffb334c1eeb03ef20a241920e74157a6cd0ef87b05e6cba16473b",
    "rand5.10": "b134288538da0407c418752bd9b0674fb142849d8a61675bd4f541d90e7aab22",
    "rand5.11": "2a7f0e3d4bc6c5f3c44699a750351d2c4d4d5c8ccf2647f46642eaa5902742e6",
    "rand5.12": "dae3df0a4087dfde15cb36c61f679608e77568f50bc9c6c9a1d434ca95876157",
    "rand5.13": "3b84cf80924c980f0478dc2530e60d7368c0d5bd26558bd201318e04605e0a1a",
    "rand5.14": "37bb2a01158c88c7b30ca0991d7bdf12454380500207304e72d1f1fe3f01ed5b",
    "rand5.15": "28ff5cef6cd19238ebf745d17631b9d63f79beb01bd54e87cfdcba5328f97d26",
    "rand5.16": "4e42d121369570017806853980289dea35f5b562ac126a006238ac02ac16dc25",
    "rand5.17": "587d6244516bb1f72187b8d6984aae596eec6e364476b51bf998d0e664cd9cc8",
    "rand5.18": "7291c37f90d1792043120c4a616f3a4c6b8a2a058e882842beb17b903ca1c69d",
    "rand5.19": "21cbe24f75783a3dcce451f7951c09f5d10bd6b1da072df375dcd6c05a6cf8d0",
}


def test_adjacency_verdict_bytes_golden():
    got = {name: verdict_digest(inst) for name, inst in golden_instances()}
    assert got == VERDICT_DIGESTS
