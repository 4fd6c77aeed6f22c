import dataclasses
import importlib

import stablepoly

PUBLIC = [
    "AdjacencyVerdict",
    "Component",
    "ConstraintSystem",
    "Decomposition",
    "Edge",
    "Instance",
    "InstanceError",
    "LimitError",
    "LpResult",
    "Matching",
    "NodeId",
    "Point",
    "Row",
    "SIDE_A",
    "SIDE_B",
    "SwapStabilityError",
    "UniformityError",
    "VerificationResult",
    "Vertex",
    "VertexReport",
    "__version__",
    "adjacency_verdict",
    "blocking_pairs",
    "build_system",
    "decompose",
    "enumerate_stable",
    "exhaustive_complete",
    "gale_shapley",
    "instance_from_json",
    "instance_to_json",
    "is_stable",
    "load_instance",
    "matchings_iter",
    "meet_join",
    "parse_weights",
    "random_instance",
    "random_instances",
    "solve_lp",
    "verify_instance",
]

FIELDS = {
    "AdjacencyVerdict": ("adjacent", "uniform", "maxima", "alternative"),
    "Component": ("nodes", "edges", "a_prefers"),
    "Decomposition": ("m1", "m2", "components"),
    "LpResult": ("status", "point", "value"),
    "Matching": ("edges",),
    "VerificationResult": ("instance", "report", "stable", "fractional", "missing", "extra"),
    "Vertex": ("point", "tight", "basis", "integral"),
}


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert stablepoly.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(stablepoly, name), name


def test_removed_names_stay_removed():
    for module in ("stablepoly", "stablepoly.adjacency", "stablepoly.instances"):
        mod = importlib.import_module(module)
        for name in ("Witness", "removed_edge_witness", "remove_edge", "validate"):
            assert not hasattr(mod, name), f"{module}.{name}"
    assert not hasattr(stablepoly.matchings, "proposal_lists")
    for name in ("other", "a_node", "b_node"):
        assert not hasattr(stablepoly.Edge, name), f"Edge.{name}"
    for name in ("neighbors", "better_edges", "nodes", "has_edge", "rank", "prefers"):
        assert not hasattr(stablepoly.Instance, name), f"Instance.{name}"
    assert not hasattr(stablepoly.Matching, "partner")
    for name in ("swap", "split_difference"):
        assert not hasattr(stablepoly.lattice, name), f"lattice.{name}"
    assert not hasattr(stablepoly.Decomposition, "flip_to_favour_a")
    assert not hasattr(stablepoly.Decomposition, "flip_to_favour_b")
    assert not hasattr(stablepoly.Row, "dense")
    assert not hasattr(stablepoly.VertexReport, "matching_of")


def test_record_fields_are_pinned():
    for name, fields in FIELDS.items():
        got = tuple(f.name for f in dataclasses.fields(getattr(stablepoly, name)))
        assert got == fields, name
