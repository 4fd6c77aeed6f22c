"""Exact tools for stable matchings and the geometry of their relaxation."""

from .adjacency import AdjacencyVerdict, adjacency_verdict
from .instances import (
    Edge,
    Instance,
    InstanceError,
    LimitError,
    NodeId,
    SIDE_A,
    SIDE_B,
    exhaustive_complete,
    instance_from_json,
    instance_to_json,
    load_instance,
    parse_weights,
    random_instance,
    random_instances,
)
from .lattice import (
    Component,
    Decomposition,
    SwapStabilityError,
    UniformityError,
    decompose,
    enumerate_stable,
    meet_join,
)
from .matchings import Matching, blocking_pairs, gale_shapley, is_stable, matchings_iter
from .polytope import (
    ConstraintSystem,
    Point,
    Row,
    Vertex,
    VertexReport,
    build_system,
)
from .simplex import LpResult, solve_lp
from .verification import VerificationResult, verify_instance

__version__ = "0.1.0"

__all__ = [
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
