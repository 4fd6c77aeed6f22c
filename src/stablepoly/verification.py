"""Per-instance comparison of polytope vertices against stable matchings.

The two sides are produced by unrelated code: the geometric side wants
exact extreme points of the halfspace description, the combinatorial
side filters every matching through the stability predicate. The claim
under test is that the two sets always coincide and nothing fractional
ever shows up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance, instance_to_json
from .lattice import enumerate_stable
from .matchings import Matching
from .polytope import Point, VertexReport, build_system


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


def verify_instance(instance: Instance, max_edges: int = 10) -> VerificationResult:
    """Enumerate both sides exactly and report any disagreement."""
    system = build_system(instance)
    report = system.enumerate_vertices(max_edges=max_edges)
    stable = tuple(enumerate_stable(instance, max_edges=max(16, max_edges)))
    vertex_points = {v.point for v in report.vertices if v.integral}
    stable_points = {system.incidence_vector(m): m for m in stable}
    fractional = tuple(v.point for v in report.vertices if not v.integral)
    missing = tuple(
        m for p, m in sorted(stable_points.items()) if p not in vertex_points
    )
    extra = tuple(sorted(p for p in vertex_points if p not in stable_points))
    return VerificationResult(
        instance=instance,
        report=report,
        stable=stable,
        fractional=fractional,
        missing=missing,
        extra=extra,
    )
