"""Exact halfspace description of the fractional stable matching region.

The system for an instance has one degree cap per node, one sign row per
edge variable, and one domination row per edge requiring weight one on
the edge together with everything either endpoint likes better. All
queries, optima and vertices are computed in exact rational arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .instances import Edge, Instance, LimitError
from .linalg import IntegerRow, greedy_independent
from .matchings import Matching
from .simplex import LpResult, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

Point = tuple[Fraction, ...]
# a point as (integer numerators, positive denominator, tight-row mask)
_Homogeneous = tuple[tuple[int, ...], int, int]
# a point as above with its slack on the row being inserted
_Slacked = tuple[tuple[int, ...], int, int, int]


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

    def to_json(self) -> dict:
        entries = []
        for v in self.vertices:
            entries.append(
                {
                    "point": [str(x) for x in v.point],
                    "integral": v.integral,
                    "matching": [self.column_names[j] for j in v.support()]
                    if v.integral
                    else None,
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
        """Optimize a linear objective over the system's rows, exactly.

        ``weights`` is either a mapping from column edge to weight, where
        a column left out weighs 0, or a sequence of one weight per
        column, in column order. A mapping with a key that is not a
        column raises ``ValueError`` naming those keys; a sequence of the
        wrong length raises ``ValueError`` too. Weights are ``int`` or
        ``Fraction``. ``sense`` is ``"max"`` (the default) or ``"min"``.
        The result is ``solve_lp``'s on the rows' integer forms
        (``_integer_row``), sign rows left out: the point and the value
        of an optimal vertex. When several vertices are optimal, the one
        returned is the one Bland's rule reaches first.
        """
        if isinstance(weights, Mapping):
            self._refuse_non_columns(weights)
            objective = [weights.get(e, 0) for e in self.columns]
        else:
            objective = list(weights)
        # the solver holds variables nonnegative already
        rows = [_integer_row(row) for row in self.rows if not row.is_sign]
        return solve_lp(len(self.columns), rows, objective, sense)

    def enumerate_vertices(self, max_edges: int = MAX_VERTEX_COLUMNS) -> VertexReport:
        """All extreme points, exact, with a tight-row basis per vertex.

        Each row is written once in integer form (``_integer_row``). The
        halfspaces are inserted one by one while the tight sets are
        tracked, and each column is lifted into the polytope when the
        first row that reaches it goes in (``_points_by_incidence``);
        each vertex's certificate is picked from the tight set the
        insertion ends with, on the same integer rows (``_describe``).
        Systems wider than ``max_edges`` columns are refused
        (``LimitError``). What grows with dimension is the insertion's
        intermediate polytopes, not the final vertex count: the cyclic
        Latin 5x5 system (25 columns) has five vertices, and its
        intermediate polytopes peak at 980.
        """
        if len(self.columns) > max_edges:
            raise LimitError(
                f"system has {len(self.columns)} columns, limit is {max_edges}"
            )
        scaled = [_integer_row(row) for row in self.rows]
        points = _points_by_incidence(self, scaled)
        vertices = tuple(self._describe(p, tight, scaled) for p, tight in sorted(points))
        return VertexReport(self.columns, self.column_names, vertices)

    def _describe(
        self, point: Point, tight: tuple[int, ...], scaled: Sequence[IntegerRow]
    ) -> Vertex:
        """The vertex at ``point`` with its certificate.

        The basis is the first independent rows of ``tight``, in index
        order, picked on the rows' integer terms (``scaled``, from
        ``_integer_row``); a ``>=`` row is negated there, which leaves its
        independence as it is.
        """
        basis_pick = greedy_independent([scaled[i][0] for i in tight], len(self.columns))
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
            self._refuse_non_columns(objective)
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

    def _refuse_non_columns(self, weights: Mapping[Edge, Fraction]) -> None:
        """Raise ``ValueError`` naming each key of ``weights`` that is not a column."""
        columns = set(self.columns)
        unknown = [key for key in weights if key not in columns]
        if unknown:
            raise ValueError(f"weights keyed by non-columns: {', '.join(map(repr, unknown))}")

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


def _upper_bound(width: int, scaled: Sequence[IntegerRow]) -> Fraction:
    """A value strictly above the coordinate sum anywhere in the region.

    The region has ``width`` columns, and the bound is certified from
    the rows whose integer form (``scaled``, from ``_integer_row``, each
    a ``<=`` row) has only positive coefficients: such a row caps each
    of its columns on its own once every variable is nonnegative,
    whichever relation it was written with, and the ratio ``rhs / a`` is
    the rational one. A cap below zero leaves the region empty; it
    counts as zero, so that the bounding simplex keeps a positive size
    and the insertion still ends with no vertices.
    """
    # the tightest cap of each column as (numerator, positive denominator)
    best: list[tuple[int, int] | None] = [None] * width
    for terms, rhs in scaled:
        # the first coefficient turns a sign or stability row away unscanned
        if not terms or terms[0][1] <= 0 or any(a <= 0 for _, a in terms):
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


_denominator = operator.attrgetter("denominator")


def _integer_row(row: Row) -> IntegerRow:
    """``row`` as ``sum(a * x[c] for c, a in terms) <= rhs`` over the integers.

    Multiplying by the lcm of the row's denominators (1 for an all-``int``
    row, such as every row of ``build_system``), negated for a ``>=``
    row, scales every slack by one positive factor, so each slack keeps
    its sign. Each product is a rational of denominator 1; its numerator
    is the integer, and an ``int`` entry stays an ``int``.
    """
    scale = math.lcm(*map(_denominator, row.coeffs), row.rhs.denominator)
    if row.relation == ">=":
        scale = -scale
    terms = tuple([(c, (a * scale).numerator) for c, a in zip(row.cols, row.coeffs)])
    return terms, (row.rhs * scale).numerator


def _points_by_incidence(
    system: ConstraintSystem, scaled: Sequence[IntegerRow]
) -> list[tuple[Point, tuple[int, ...]]]:
    """Every vertex, with the indices of the rows tight at it.

    The halfspaces are inserted one at a time, and the columns are lifted
    into the polytope as the rows reach them (next paragraph). Every
    intermediate vertex carries the exact bit set of its tight rows. A
    cut keeps the satisfied vertices and adds one new vertex per polytope
    edge that crosses the cut; the crossing edges are recognised
    combinatorially, two vertices being adjacent exactly when no third
    one is tight on everything they are both tight on. One pass over the
    vertices computes each slack and sorts the vertex as inside, tight or
    outside; an inside or outside vertex carries its slack into the pair
    loop. A row that cuts nothing off only marks the vertices it is
    tight at: the kept vertices become the new list and no pair is
    tested. A row with no columns holds everywhere or nowhere, so it
    goes in before any lift and either only marks or empties the list.

    The insertion starts from the origin alone, tight on every sign row.
    A column not reached yet is held at 0 by its sign row, so the current
    polytope is the inserted rows with ``x >= 0`` and the bounding facet
    ``1·x <= bound`` (``_upper_bound``), each unreached column pinned at
    0. Just before a row whose largest column is ``j`` goes in, each
    column up to ``j`` not reached yet is lifted: every current vertex
    ``v`` off the facet gains a twin ``(v, t)``, with ``t = bound - 1·v``
    on that column, and ``v`` stays as it is. These are all the vertices
    of the lifted polytope: over each point of the old one the new
    coordinate runs from 0 to ``t``, so only an end of the segment over
    a vertex can be extreme, and over a vertex on the facet both ends
    are ``v`` itself. No inserted row has a coefficient on the new
    column, so the twin is tight on exactly the rows ``v`` is tight on,
    less the column's sign row, plus the facet. ``_upper_bound`` refuses
    a column with no cap row, so every column is lifted inside the row
    loop. Seeding a spike ``bound·e_j`` for every column at the start
    instead gives every vertex one more copy per unreached column, and
    each copy pays for slacks, pair tests and scans: over the 3000
    ``verify`` benchmark items the lift takes the slacks per item from
    142 to 66, the pair tests from 160 to 45 and the mask reads from
    1063 to 225, and on the cyclic Latin 5x5 system (25 columns, five
    vertices) the insertion from 112 s to 7.5 s (2-core VM, Python
    3.11.7).

    Rows go in by their largest column index, ties in system order. The
    columns of ``build_system`` are sorted by (a, b), so the rows enter
    one a-node at a time and the columns are lifted in that order. That
    keeps the intermediate polytopes small; taking every degree row first
    would build the whole bipartite matching polytope before any
    stability row cut it down. The order cannot change the output: the
    region, and so its vertex set, does not depend on it, the caller
    sorts the points, and each tight set is read from a mask that is
    exact whatever the order (last paragraph).

    The arithmetic is on integers. Each row comes scaled to integer
    coefficients and right-hand side (``scaled``, from ``_integer_row``,
    which the caller reuses for the certificates), and each vertex
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
    edge are tight on all of them. A pinned column counts too: its sign
    row is tight at every vertex and is the pin's own hyperplane, so it
    adds one independent tight row everywhere. The scan would reject such
    a pair anyway; the count only spares it. A pair that passes can still
    span a larger face when rows repeat or the face is degenerate (the
    unit cube with ``z <= 1`` given twice: its opposite top corners share
    the two copies), so the scan stays. It counts the vertices whose mask
    contains the shared rows and stops at the third; ``u`` and ``w``
    always count, so the pair is adjacent when the count ends at two.

    The scan is skipped when ``u`` or ``w`` is simple, tight on exactly
    ``width`` rows. The tight rows of a vertex have rank ``width``, so a
    simple vertex's rows are independent. A pair that passes the
    prefilter shares ``width - 1`` of them (all ``width`` would pin both
    ends to one point), and those independent rows cut out a line: the
    face where the shared rows are tight is an edge, with ends ``u`` and
    ``w``. Over the first 900 ``verify`` benchmark items this skips
    4103 of 26431 scans. On the cyclic Latin 4x4 system (16 columns)
    3086 pairs pass the prefilter, 4 of them with a simple end, and 157
    are adjacent; the scan reads 89 thousand masks and takes about three
    quarters of the insertion's time. On the Latin 5x5 system it reads 83
    million and takes about 94%.

    The masks stay exact, so the tight rows of each vertex are read off
    its final mask. The seed mask is exact on the sign rows, a twin's
    mask is exact by the lift's argument, and a kept vertex gains a
    row's bit exactly when its slack is zero. A vertex born on an edge
    lies strictly between two vertices that satisfy every earlier row,
    so such a row is tight at it only if it is tight at both ends.
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
    bound = _upper_bound(width, scaled)
    bound_num, bound_den = bound.numerator, bound.denominator
    synthetic = len(system.rows)  # bit index of the bounding facet
    facet = 1 << synthetic

    sign_rows = set(sign_row_of.values())
    all_signs = 0
    for i in sign_rows:
        all_signs |= 1 << i
    verts: list[_Homogeneous] = [((0,) * width, 1, all_signs)]
    reached = 0  # columns below this are lifted, the others held at 0

    last_col = [max(row.cols, default=-1) for row in system.rows]
    pending = sorted(
        (i for i in range(len(system.rows)) if i not in sign_rows),
        key=last_col.__getitem__,
    )
    for i in pending:
        for j in range(reached, last_col[i] + 1):
            # the twin of a vertex v = n / d off the facet has
            # bound - 1·v on column j; over d * bound_den / gcd(bound_den,
            # d) it is in lowest terms
            flip = (1 << sign_row_of[j]) | facet
            twins: list[_Homogeneous] = []
            for n, d, m in verts:
                if m & facet:
                    continue
                g = math.gcd(bound_den, d)
                s = bound_den // g
                lifted = [x * s for x in n]
                lifted[j] = (bound_num * d - bound_den * sum(n)) // g
                twins.append((tuple(lifted), d * s, m ^ flip))
            verts += twins
            reached = j + 1
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
    # _upper_bound gives every column a cap row, which lifts it
    if reached != width:
        raise AssertionError(f"columns {reached} and on were never lifted")
    points: list[tuple[Point, tuple[int, ...]]] = []
    for n, d, m in verts:
        if m & facet:
            raise AssertionError(
                "bounding facet still tight after all rows were inserted"
            )
        tight = tuple(i for i in range(synthetic) if m >> i & 1)
        point = tuple(ZERO if x == 0 else ONE if x == d else Fraction(x, d) for x in n)
        points.append((point, tight))
    return points
