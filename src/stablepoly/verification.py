"""Per-instance comparison of polytope vertices against stable matchings.

The two sides are produced by unrelated code: the geometric side wants
exact extreme points of the halfspace description, the combinatorial
side walks the stable lattice by break-marriage from deferred
acceptance (``lattice.enumerate_stable``). The claim
under test is that the two sets always coincide and nothing fractional
ever shows up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance, instance_to_json
from .lattice import enumerate_stable
from .matchings import Matching
from .polytope import MAX_VERTEX_COLUMNS, Point, VertexReport, build_system


@dataclass(frozen=True)
class VerificationResult:
    instance: Instance
    report: VertexReport
    stable: tuple[Matching, ...]
    fractional: tuple[Point, ...]
    missing: tuple[Matching, ...]
    extra: tuple[Point, ...]

    @property
    def ok(self) -> bool:
        return not (self.fractional or self.missing or self.extra)

    def to_json(self) -> dict:
        return {
            "instance": instance_to_json(self.instance),
            "ok": self.ok,
            "stable_count": len(self.stable),
            "vertex_count": len(self.report.vertices),
            "fractional": [[str(x) for x in p] for p in self.fractional],
            "missing": [m.to_pairs(self.instance) for m in self.missing],
            "extra": [[str(x) for x in p] for p in self.extra],
        }


def verify_instance(instance: Instance, max_edges: int = MAX_VERTEX_COLUMNS) -> VerificationResult:
    """Enumerate both sides exactly and report any disagreement.

    The two sides meet as column sets: the support of each integral
    vertex against the sorted columns of each stable matching. Points
    are needed only for the disagreements, which are listed in the order
    of their points.

    ``max_edges`` is the one size limit: an instance with more edges
    raises ``LimitError`` before either side is enumerated.
    """
    system = build_system(instance)
    report = system.enumerate_vertices(max_edges=max_edges)
    stable = tuple(enumerate_stable(instance, max_edges=max_edges))
    col_of = {e: j for j, e in enumerate(system.columns)}
    vertex_sets = {v.support(): v.point for v in report.vertices if v.integral}
    stable_sets = {tuple(sorted(col_of[e] for e in m.edges)): m for m in stable}
    fractional = tuple(v.point for v in report.vertices if not v.integral)
    missing = tuple(
        sorted(
            (m for cols, m in stable_sets.items() if cols not in vertex_sets),
            key=system.incidence_vector,
        )
    )
    extra = tuple(
        sorted(p for cols, p in vertex_sets.items() if cols not in stable_sets)
    )
    return VerificationResult(
        instance=instance,
        report=report,
        stable=stable,
        fractional=fractional,
        missing=missing,
        extra=extra,
    )
