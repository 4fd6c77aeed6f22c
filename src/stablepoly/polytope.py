"""Exact halfspace description of the fractional stable matching region.

The system for an instance has one degree cap per node, one sign row per
edge variable, and one domination row per edge requiring weight one on
the edge together with everything either endpoint likes better. All
queries, optima and vertices are computed in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .instances import Edge, Instance
from .linalg import greedy_independent
from .matchings import Matching
from .simplex import LpResult, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Row:
    """One inequality, sparse over the edge columns."""

    cols: tuple[int, ...]
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction
    kind: str
    subject: str
    _unit: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.relation not in ("<=", ">="):
            raise ValueError(f"unknown relation {self.relation!r}")
        if len(self.cols) != len(self.coeffs):
            raise ValueError("column and coefficient counts differ")
        object.__setattr__(self, "_unit", all(c == 1 for c in self.coeffs))

    @property
    def is_sign(self) -> bool:
        """True for the plain sign row ``x[c] >= 0`` of one column."""
        return (
            self.kind == "nonneg"
            and len(self.cols) == 1
            and self.coeffs[0] == 1
            and self.rhs == 0
            and self.relation == ">="
        )

    def value(self, point: Sequence[Fraction]) -> Fraction:
        if self._unit:
            return sum((point[c] for c in self.cols), ZERO)
        return sum((w * point[c] for c, w in zip(self.cols, self.coeffs)), ZERO)

    def slack(self, point: Sequence[Fraction]) -> Fraction:
        """Nonnegative exactly on the feasible side, zero when tight."""
        v = self.value(point)
        return self.rhs - v if self.relation == "<=" else v - self.rhs

    def is_tight(self, point: Sequence[Fraction]) -> bool:
        return self.value(point) == self.rhs

    def dense(self, width: int) -> list[Fraction]:
        out = [ZERO] * width
        for c, w in zip(self.cols, self.coeffs):
            out[c] = w
        return out


@dataclass(frozen=True)
class Vertex:
    """An extreme point with its certificate.

    ``tight`` lists every row met with equality; ``basis`` is a subset of
    it, one row per column, that is linearly independent, which is what
    makes the point a vertex and not merely feasible.
    """

    point: Point
    tight: tuple[int, ...]
    basis: tuple[int, ...]
    integral: bool

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, x in enumerate(self.point) if x != 0)


@dataclass(frozen=True)
class VertexReport:
    columns: tuple[Edge, ...]
    column_names: tuple[str, ...]
    vertices: tuple[Vertex, ...]

    def fractional_vertices(self) -> list[Vertex]:
        return [v for v in self.vertices if not v.integral]

    def matching_of(self, vertex: Vertex) -> Matching | None:
        if not vertex.integral:
            return None
        return Matching.from_edges(self.columns[j] for j in vertex.support())

    def to_json(self) -> dict:
        entries = []
        for v in self.vertices:
            matching = self.matching_of(v)
            entries.append(
                {
                    "point": [str(x) for x in v.point],
                    "integral": v.integral,
                    "matching": None
                    if matching is None
                    else [self.column_names[j] for j in v.support()],
                    "tight": list(v.tight),
                    "basis": list(v.basis),
                }
            )
        return {
            "method": "incidence",
            "columns": list(self.column_names),
            "vertices": entries,
            "counts": {
                "total": len(self.vertices),
                "integral": sum(1 for v in self.vertices if v.integral),
                "fractional": sum(1 for v in self.vertices if not v.integral),
            },
        }


@dataclass(frozen=True)
class ConstraintSystem:
    columns: tuple[Edge, ...]
    column_names: tuple[str, ...]
    rows: tuple[Row, ...]

    def incidence_vector(self, matching: Matching) -> Point:
        return tuple(ONE if e in matching.edges else ZERO for e in self.columns)

    def optimize(
        self, weights: Mapping[Edge, Fraction] | Sequence[Fraction], sense: str = "max"
    ) -> LpResult:
        if isinstance(weights, Mapping):
            objective = [Fraction(weights.get(e, ZERO)) for e in self.columns]
        else:
            objective = [Fraction(w) for w in weights]
            if len(objective) != len(self.columns):
                raise ValueError("objective length does not match column count")
        constraints = []
        for row in self.rows:
            if row.is_sign:
                continue  # the solver holds variables nonnegative already
            constraints.append((list(zip(row.cols, row.coeffs)), row.relation, row.rhs))
        return solve_lp(len(self.columns), constraints, objective, sense)

    def enumerate_vertices(self, max_edges: int = 10) -> VertexReport:
        """All extreme points, exact, with a tight-row basis per vertex.

        The halfspaces are inserted one by one while the tight sets are
        tracked (``_points_by_incidence``). Systems wider than
        ``max_edges`` columns are refused, since vertex counts explode
        with dimension.
        """
        if len(self.columns) > max_edges:
            raise ValueError(
                f"system has {len(self.columns)} columns, limit is {max_edges}"
            )
        points = _points_by_incidence(self)
        vertices = tuple(self._describe(p) for p in sorted(points))
        return VertexReport(self.columns, self.column_names, vertices)

    def _describe(self, point: Point) -> Vertex:
        tight = tuple(i for i, row in enumerate(self.rows) if row.is_tight(point))
        width = len(self.columns)
        basis_pick = greedy_independent([self.rows[i].dense(width) for i in tight], width)
        if basis_pick is None:
            raise AssertionError(f"tight rows of {point} do not have full rank")
        return Vertex(
            point=point,
            tight=tight,
            basis=tuple(tight[k] for k in basis_pick),
            integral=all(x == 0 or x == 1 for x in point),
        )

    def to_lp_text(
        self,
        objective: Mapping[Edge, Fraction] | None = None,
        sense: str = "max",
    ) -> str:
        lines = []
        if objective is not None:
            terms = " + ".join(
                self._term(Fraction(objective.get(e, ZERO)), j)
                for j, e in enumerate(self.columns)
                if objective.get(e, ZERO) != 0
            )
            lines.append(f"{sense}: {terms if terms else '0'}")
        for row in self.rows:
            lhs = " + ".join(
                self._term(w, c) for c, w in zip(row.cols, row.coeffs)
            )
            lines.append(f"{lhs if lhs else '0'} {row.relation} {row.rhs}  # {row.kind} {row.subject}")
        return "\n".join(lines) + "\n"

    def _term(self, coeff: Fraction, col: int) -> str:
        name = f"x[{self.column_names[col]}]"
        return name if coeff == 1 else f"{coeff} {name}"

    def to_json(self) -> dict:
        return {
            "columns": list(self.column_names),
            "rows": [
                {
                    "terms": {
                        self.column_names[c]: str(w)
                        for c, w in zip(row.cols, row.coeffs)
                    },
                    "relation": row.relation,
                    "rhs": str(row.rhs),
                    "kind": row.kind,
                    "subject": row.subject,
                }
                for row in self.rows
            ],
        }


def build_system(instance: Instance) -> ConstraintSystem:
    """Degree caps, sign rows and domination rows for one instance.

    The domination row of edge ab asks for a unit mass on its cover set
    (``Instance.cover_sets``): ab itself, the edges at a that a prefers to
    b, and the edges at b that b prefers to a. That mass is what rules the
    edge out as a joint improvement.
    """
    columns = instance.canonical_edges()
    names = tuple(instance.edge_name(e) for e in columns)
    col_of = {e: j for j, e in enumerate(columns)}
    rows: list[Row] = []
    for node in instance.nodes():
        incident = tuple(j for j, e in enumerate(columns) if node in (e.a_node, e.b_node))
        if not incident:
            continue
        rows.append(
            Row(incident, (ONE,) * len(incident), "<=", ONE, "degree", instance.node_name(node))
        )
    for j, name in enumerate(names):
        rows.append(Row((j,), (ONE,), ">=", ZERO, "nonneg", name))
    for j, e in enumerate(columns):
        cols = tuple(sorted(col_of[f] for f in instance.cover_sets[e]))
        rows.append(Row(cols, (ONE,) * len(cols), ">=", ONE, "stability", names[j]))
    return ConstraintSystem(columns, names, tuple(rows))


def _upper_bound(system: ConstraintSystem) -> Fraction:
    """A value strictly above the coordinate sum anywhere in the region.

    Certified from rows of nonnegative coefficients: such a row caps each
    of its columns on its own once every variable is nonnegative.
    """
    width = len(system.columns)
    best: list[Fraction | None] = [None] * width
    for row in system.rows:
        if row.relation != "<=" or any(w <= 0 for w in row.coeffs):
            continue
        for c, w in zip(row.cols, row.coeffs):
            cap = row.rhs / w
            if best[c] is None or cap < best[c]:
                best[c] = cap
    if any(cap is None for cap in best):
        raise ValueError(
            "cannot certify the region is bounded; vertex enumeration needs "
            "a nonnegative-coefficient cap row for every column"
        )
    return sum(best, ZERO) + 1  # type: ignore[arg-type]


def _points_by_incidence(system: ConstraintSystem) -> list[Point]:
    """Insert halfspaces one at a time into a bounding simplex.

    Every intermediate vertex carries the exact bit set of its tight
    rows. A cut keeps the satisfied vertices and adds one new vertex per
    polytope edge that crosses the cut; the crossing edges are recognised
    combinatorially, two vertices being adjacent exactly when no third
    one is tight on everything they are both tight on.
    """
    width = len(system.columns)
    if width == 0:
        return [()] if all(row.slack(()) >= 0 for row in system.rows) else []
    sign_row_of: dict[int, int] = {}
    for i, row in enumerate(system.rows):
        if row.is_sign:
            sign_row_of.setdefault(row.cols[0], i)
    if len(sign_row_of) < width:
        raise ValueError(
            "incidence enumeration needs an explicit sign row per column"
        )
    bound = _upper_bound(system)
    synthetic = len(system.rows)  # bit index of the bounding simplex facet

    all_signs = 0
    for i in sign_row_of.values():
        all_signs |= 1 << i
    origin: Point = tuple(ZERO for _ in range(width))
    verts: list[tuple[Point, int]] = [(origin, all_signs)]
    for j in range(width):
        spike = tuple(bound if k == j else ZERO for k in range(width))
        mask = (all_signs & ~(1 << sign_row_of[j])) | (1 << synthetic)
        verts.append((spike, mask))

    pending = [
        i for i, row in enumerate(system.rows) if i not in sign_row_of.values()
    ]
    for i in pending:
        row = system.rows[i]
        slacks = [row.slack(p) for p, _ in verts]
        if all(s >= 0 for s in slacks):
            verts = [
                (p, m | (1 << i) if s == 0 else m)
                for (p, m), s in zip(verts, slacks)
            ]
            continue
        keep: list[tuple[Point, int]] = []
        inside: list[int] = []
        outside: list[int] = []
        for k, ((p, m), s) in enumerate(zip(verts, slacks)):
            if s > 0:
                inside.append(k)
                keep.append((p, m))
            elif s == 0:
                keep.append((p, m | (1 << i)))
            else:
                outside.append(k)
        born: list[tuple[Point, int]] = []
        for u in inside:
            pu, mu = verts[u]
            su = slacks[u]
            for w in outside:
                pw, mw = verts[w]
                shared = mu & mw
                adjacent = True
                for z, (_, mz) in enumerate(verts):
                    if z != u and z != w and shared & ~mz == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                t = su / (su - slacks[w])
                point = tuple(a + t * (b - a) for a, b in zip(pu, pw))
                born.append((point, shared | (1 << i)))
        # An empty list here means the region itself is empty; that is a
        # legal outcome for a general system and simply yields no vertices.
        verts = keep + born
    points: list[Point] = []
    for p, m in verts:
        if m >> synthetic & 1:
            raise AssertionError(
                "bounding facet still tight after all rows were inserted"
            )
        points.append(p)
    return points
