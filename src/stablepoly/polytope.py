"""Exact halfspace description of the fractional stable matching region.

The system for an instance has one degree cap per node, one sign row per
edge variable, and one domination row per edge requiring weight one on
the edge together with everything either endpoint likes better. All
queries, optima and vertices are computed in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .instances import Edge, Instance, LimitError
from .linalg import greedy_independent
from .matchings import Matching
from .simplex import LpResult, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

Point = tuple[Fraction, ...]
# a point as (integer numerators, positive denominator, tight-row mask)
_Homogeneous = tuple[tuple[int, ...], int, int]
# a point as above with its slack on the row being inserted
_Slacked = tuple[tuple[int, ...], int, int, int]
# a row as (((column, integer coefficient), ...), integer rhs) of a <= row
_IntegerRow = tuple[tuple[tuple[int, int], ...], int]


@dataclass(frozen=True)
class Row:
    """One inequality, sparse over the edge columns."""

    cols: tuple[int, ...]
    coeffs: tuple[int | Fraction, ...]
    relation: str
    rhs: int | Fraction
    kind: str
    subject: str

    def __post_init__(self) -> None:
        if self.relation not in ("<=", ">="):
            raise ValueError(f"unknown relation {self.relation!r}")
        if len(self.cols) != len(self.coeffs):
            raise ValueError("column and coefficient counts differ")
        if len(set(self.cols)) != len(self.cols):
            raise ValueError(f"repeated column in {self.cols}")

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

    def dense(self, width: int) -> list[int | Fraction]:
        out: list[int | Fraction] = [0] * width
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


# default column limit of vertex enumeration (ConstraintSystem.enumerate_vertices)
MAX_VERTEX_COLUMNS = 10


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
            objective = [weights.get(e, 0) for e in self.columns]
        else:
            objective = list(weights)
        # the solver holds variables nonnegative already
        constraints = [
            (list(zip(row.cols, row.coeffs)), row.relation, row.rhs)
            for row in self.rows
            if not row.is_sign
        ]
        return solve_lp(len(self.columns), constraints, objective, sense)

    def enumerate_vertices(self, max_edges: int = MAX_VERTEX_COLUMNS) -> VertexReport:
        """All extreme points, exact, with a tight-row basis per vertex.

        The halfspaces are inserted one by one while the tight sets are
        tracked (``_points_by_incidence``); each vertex's certificate is
        read off the tight set the insertion ends with. Systems wider than
        ``max_edges`` columns are refused (``LimitError``). What grows
        with dimension is the insertion's intermediate polytopes, not the
        final vertex count: the cyclic Latin 5x5 system (25 columns) has
        five vertices and passes through thousands of intermediate ones.
        """
        if len(self.columns) > max_edges:
            raise LimitError(
                f"system has {len(self.columns)} columns, limit is {max_edges}"
            )
        points = _points_by_incidence(self)
        vertices = tuple(self._describe(p, tight) for p, tight in sorted(points))
        return VertexReport(self.columns, self.column_names, vertices)

    def _describe(self, point: Point, tight: tuple[int, ...]) -> Vertex:
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
    # the columns at each node: a-nodes first, then b-nodes
    incident: list[list[int]] = [[] for _ in range(instance.a_count + instance.b_count)]
    for j, e in enumerate(columns):
        incident[e.a].append(j)
        incident[instance.a_count + e.b].append(j)
    rows: list[Row] = []
    for name, cols in zip(instance.a_names + instance.b_names, incident):
        if cols:
            rows.append(Row(tuple(cols), (1,) * len(cols), "<=", 1, "degree", name))
    for j, name in enumerate(names):
        rows.append(Row((j,), (1,), ">=", 0, "nonneg", name))
    for j, e in enumerate(columns):
        cols = tuple(sorted(col_of[f] for f in instance.cover_sets[e]))
        rows.append(Row(cols, (1,) * len(cols), ">=", 1, "stability", names[j]))
    return ConstraintSystem(columns, names, tuple(rows))


def _upper_bound(system: ConstraintSystem, scaled: Sequence[_IntegerRow]) -> Fraction:
    """A value strictly above the coordinate sum anywhere in the region.

    Certified from the ``<=`` rows of positive coefficients: such a row
    caps each of its columns on its own once every variable is
    nonnegative. The caps are read from the rows' integer forms
    (``scaled``, from ``_integer_row``), where a ``<=`` row keeps its
    signs and the ratio ``rhs / a`` is the rational one. A cap below zero
    leaves the region empty; it counts as zero, so that the bounding
    simplex keeps a positive size and the insertion still ends with no
    vertices.
    """
    # the tightest cap of each column as (numerator, positive denominator)
    best: list[tuple[int, int] | None] = [None] * len(system.columns)
    for row, (terms, rhs) in zip(system.rows, scaled):
        if row.relation != "<=" or any(a <= 0 for _, a in terms):
            continue
        top = max(rhs, 0)
        for c, a in terms:
            cap = best[c]
            if cap is None or top * cap[1] < cap[0] * a:
                best[c] = (top, a)
    if any(cap is None for cap in best):
        raise ValueError(
            "cannot certify the region is bounded; vertex enumeration needs "
            "a nonnegative-coefficient cap row for every column"
        )
    den = math.lcm(*[a for _, a in best])  # type: ignore[misc]
    num = sum(top * (den // a) for top, a in best)  # type: ignore[misc]
    return Fraction(num + den, den)


def _integer_row(row: Row) -> _IntegerRow:
    """``row`` as ``sum(a * x[c] for c, a in terms) <= rhs`` over the integers.

    Multiplying by the lcm of the row's denominators (1 for an all-``int``
    row, such as every row of ``build_system``), negated for a ``>=``
    row, scales every slack by one positive factor, so each slack keeps
    its sign. Each product is a rational of denominator 1; its numerator
    is the integer, and an ``int`` entry stays an ``int``.
    """
    scale = math.lcm(row.rhs.denominator, *[a.denominator for a in row.coeffs])
    if row.relation == ">=":
        scale = -scale
    terms = tuple([(c, (a * scale).numerator) for c, a in zip(row.cols, row.coeffs)])
    return terms, (row.rhs * scale).numerator


def _points_by_incidence(system: ConstraintSystem) -> list[tuple[Point, tuple[int, ...]]]:
    """Every vertex, with the indices of the rows tight at it.

    The halfspaces are inserted one at a time into a bounding simplex.
    Every intermediate vertex carries the exact bit set of its tight
    rows. A cut keeps the satisfied vertices and adds one new vertex per
    polytope edge that crosses the cut; the crossing edges are recognised
    combinatorially, two vertices being adjacent exactly when no third
    one is tight on everything they are both tight on. One pass over the
    vertices computes each slack and sorts the vertex as inside, tight or
    outside; an inside or outside vertex carries its slack into the pair
    loop. A row that cuts nothing off, and every row of a zero-width
    system, only marks the vertices it is tight at: the kept vertices
    become the new list and no pair is tested.

    Rows go in by their largest column index, ties in system order. The
    columns of ``build_system`` are sorted by (a, b), so the rows enter
    one a-node at a time, and a column not reached yet is bounded only by
    its sign row and the bounding facet. That keeps the intermediate
    polytopes small; taking every degree row first would build the whole
    bipartite matching polytope before any stability row cut it down.
    The order cannot change the output: the region, and so its vertex
    set, does not depend on it, the caller sorts the points, and each
    tight set is read from a mask that is exact whatever the order (last
    paragraph).

    The arithmetic is on integers. Each row is scaled once to integer
    coefficients and right-hand side (``_integer_row``), and each vertex
    is held in homogeneous coordinates: integer numerators over one
    positive integer denominator, the whole vector divided by the gcd of
    its entries. A slack is then one integer dot product, scaled by a
    positive factor, so its sign is exact. The vertex born on the edge
    from ``u`` (slack ``s_u > 0``) to ``w`` (slack ``s_w < 0``) is
    ``s_u * w - s_w * u``, which has slack zero and a positive
    denominator. ``Fraction``s are built only for the final points, and a
    coordinate of 0 or 1 there is the shared ``ZERO`` or ``ONE``.

    Before the third-vertex scan a pair is dropped when it shares fewer
    than ``width - 1`` tight rows. That is sound: the rows tight on an
    edge of the current polytope cut out its affine hull, a line, so at
    least ``width - 1`` of them are independent, and the endpoints of an
    edge are tight on all of them. The scan would reject such a pair
    anyway; the count only spares it. A pair that passes can still span
    a larger face when rows repeat or the face is degenerate (the unit
    cube with ``z <= 1`` given twice: its opposite top corners share the
    two copies), so the scan stays. It counts the vertices whose mask
    contains the shared rows and stops at the third; ``u`` and ``w``
    always count, so the pair is adjacent when the count ends at two.

    The scan is skipped when ``u`` or ``w`` is simple, tight on exactly
    ``width`` rows. The tight rows of a vertex have rank ``width``, so a
    simple vertex's rows are independent. A pair that passes the
    prefilter shares ``width - 1`` of them (all ``width`` would pin both
    ends to one point), and those independent rows cut out a line: the
    face where the shared rows are tight is an edge, with ends ``u`` and
    ``w``. Over the first 900 ``verify`` benchmark items this skips
    20852 of 80099 scans. On the cyclic Latin 4x4 system (16 columns)
    17211 pairs pass the prefilter, 52 of them with a simple end, and
    695 are adjacent; the scan reads 1.14 million masks and still takes
    most of the insertion's time.

    The masks stay exact, so the tight rows of each vertex are read off
    its final mask. The seed masks are exact on the sign rows, and a kept
    vertex gains a row's bit exactly when its slack is zero. A vertex
    born on an edge lies strictly between two vertices that satisfy every
    earlier row, so such a row is tight at it only if it is tight at both
    ends.
    """
    width = len(system.columns)
    sign_row_of: dict[int, int] = {}
    for i, row in enumerate(system.rows):
        if row.is_sign:
            sign_row_of.setdefault(row.cols[0], i)
    if len(sign_row_of) < width:
        raise ValueError(
            "incidence enumeration needs an explicit sign row per column"
        )
    scaled = [_integer_row(row) for row in system.rows]
    bound = _upper_bound(system, scaled)
    synthetic = len(system.rows)  # bit index of the bounding simplex facet

    all_signs = 0
    for i in sign_row_of.values():
        all_signs |= 1 << i
    verts: list[_Homogeneous] = [((0,) * width, 1, all_signs)]
    for j in range(width):
        spike = tuple(bound.numerator if k == j else 0 for k in range(width))
        mask = (all_signs & ~(1 << sign_row_of[j])) | (1 << synthetic)
        verts.append((spike, bound.denominator, mask))

    pending = sorted(
        (i for i in range(len(system.rows)) if i not in sign_row_of.values()),
        key=lambda i: max(system.rows[i].cols, default=-1),
    )
    for i in pending:
        terms, rhs = scaled[i]
        bit = 1 << i
        keep: list[_Homogeneous] = []
        inside: list[_Slacked] = []
        outside: list[_Slacked] = []
        for v in verts:
            n, d, m = v
            s = rhs * d - sum([a * n[c] for c, a in terms])
            if s > 0:
                keep.append(v)
                inside.append((n, d, m, s))
            elif s == 0:
                keep.append((n, d, m | bit))
            else:
                outside.append((n, d, m, s))
        if not outside:
            verts = keep
            continue
        masks = [m for _, _, m in verts]
        born: list[_Homogeneous] = []
        for nu, du, mu, su in inside:
            simple_u = mu.bit_count() == width
            for nw, dw, mw, sw in outside:
                shared = mu & mw
                if shared.bit_count() < width - 1:
                    continue
                if not (simple_u or mw.bit_count() == width):
                    # u and w always count; a third vertex tight on all
                    # of ``shared`` means the pair spans no edge
                    count = 0
                    for mz in masks:
                        if mz & shared == shared:
                            count += 1
                            if count == 3:
                                break
                    if count == 3:
                        continue
                num = [su * b - sw * a for a, b in zip(nu, nw)]
                den = su * dw - sw * du
                g = math.gcd(den, *num)
                born.append((tuple([x // g for x in num]), den // g, shared | bit))
        # An empty list here means the region itself is empty; that is a
        # legal outcome for a general system and simply yields no vertices.
        verts = keep + born
    points: list[tuple[Point, tuple[int, ...]]] = []
    for n, d, m in verts:
        if m >> synthetic & 1:
            raise AssertionError(
                "bounding facet still tight after all rows were inserted"
            )
        tight = tuple(i for i in range(synthetic) if m >> i & 1)
        point = tuple(ZERO if x == 0 else ONE if x == d else Fraction(x, d) for x in n)
        points.append((point, tight))
    return points
