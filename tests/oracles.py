"""Slow, deliberately independent re-derivations used as test oracles.

Everything here works off the raw preference tuples and raw row data:
no ranks, partner maps, cover sets, or linear algebra from the package
proper. These exist to disagree loudly when the fast code drifts, so
clarity beats speed throughout.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from types import SimpleNamespace


def edge_pairs(instance):
    """All mutually listed (i, j) pairs, sorted."""
    out = []
    for i, prefs in enumerate(instance.a_prefs):
        for j in prefs:
            if i in instance.b_prefs[j]:
                out.append((i, j))
    return sorted(out)


def cover_pairs(instance):
    """Map each edge (i, j) to its cover: (i, j) itself, the edges at i
    that i lists before j, and the edges at j that j lists before i."""
    edges = set(edge_pairs(instance))
    covers = {}
    for i, j in edges:
        a_list, b_list = instance.a_prefs[i], instance.b_prefs[j]
        better_at_a = {(i, k) for k in a_list[: a_list.index(j)]}
        better_at_b = {(k, j) for k in b_list[: b_list.index(i)]}
        covers[(i, j)] = ((better_at_a | better_at_b) & edges) | {(i, j)}
    return covers


def is_matching_pairs(pairs):
    a_side = [i for i, _ in pairs]
    b_side = [j for _, j in pairs]
    return len(set(a_side)) == len(pairs) and len(set(b_side)) == len(pairs)


def blocking_pairs_of(instance, pairs):
    """Every edge outside the matching preferred by both of its endpoints,
    sorted, found by scanning all edges with ``list.index``."""
    chosen = set(pairs)
    a_partner = {i: j for i, j in pairs}
    b_partner = {j: i for i, j in pairs}
    blocking = []
    for i, j in edge_pairs(instance):
        if (i, j) in chosen:
            continue
        a_list = instance.a_prefs[i]
        cur = a_partner.get(i)
        a_wants = cur is None or a_list.index(j) < a_list.index(cur)
        b_list = instance.b_prefs[j]
        cur = b_partner.get(j)
        b_wants = cur is None or b_list.index(i) < b_list.index(cur)
        if a_wants and b_wants:
            blocking.append((i, j))
    return blocking


def is_stable_pairs(instance, pairs):
    """No edge outside the matching preferred by both of its endpoints."""
    return not blocking_pairs_of(instance, pairs)


def stable_sets(instance):
    """Every stable matching as a frozenset of (i, j) pairs, brute force.

    Walks all 2^|E| edge subsets, so keep |E| small.
    """
    edges = edge_pairs(instance)
    found = []
    for size in range(len(edges) + 1):
        for subset in combinations(edges, size):
            if is_matching_pairs(subset) and is_stable_pairs(instance, subset):
                found.append(frozenset(subset))
    return found


def filter_stable(instance):
    """Every stable matching, by filtering every matching of the instance.

    Each matching is a tuple of sorted (i, j) pairs, and the list is
    sorted, which is the library's order. The walk only builds
    matchings, so it reaches further than ``stable_sets``, but its cost
    still grows with the number of matchings, not of stable ones.
    """
    edges = edge_pairs(instance)
    found = []

    def extend(start, chosen, used_a, used_b):
        if is_stable_pairs(instance, chosen):
            found.append(tuple(chosen))
        for k in range(start, len(edges)):
            i, j = edges[k]
            if i in used_a or j in used_b:
                continue
            extend(k + 1, chosen + [(i, j)], used_a | {i}, used_b | {j})

    extend(0, [], frozenset(), frozenset())
    return sorted(found)


def dominance_witness(instance, p, q):
    """The first edge, in sorted order, that one matching beats at both
    endpoints while the other beats it at neither.

    ``p`` and ``q`` are sets of (i, j) pairs. Returns ((i, j), 1) when
    ``p`` is the one that beats it, ((i, j), 2) when ``q`` is, and None
    when no edge qualifies.
    """
    for i, j in edge_pairs(instance):
        a_list, b_list = instance.a_prefs[i], instance.b_prefs[j]
        better_at_a = {(i, k) for k in a_list[: a_list.index(j)]}
        better_at_b = {(k, j) for k in b_list[: b_list.index(i)]}
        for dominant, strong, weak in ((1, p, q), (2, q, p)):
            if (
                strong & better_at_a
                and strong & better_at_b
                and not weak & (better_at_a | better_at_b)
            ):
                return (i, j), dominant
    return None


def max_weight_stable(instance, weights):
    """Best total weight over the brute-force stable list.

    ``weights`` maps (i, j) pairs to Fractions; missing keys count as 0.
    """
    best = None
    for pairs in stable_sets(instance):
        total = sum((weights.get(p, Fraction(0)) for p in pairs), Fraction(0))
        if best is None or total > best:
            best = total
    return best


# -- vertex reference route --------------------------------------------


def slack(row, point):
    """The slack of ``row`` at ``point``: negative outside, zero when tight."""
    value = sum((w * point[c] for c, w in zip(row.cols, row.coeffs)), Fraction(0))
    return row.rhs - value if row.relation == "<=" else value - row.rhs


def solve_square(matrix, rhs):
    """Solve a square system exactly by Gauss-Jordan; None when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system is not square")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [x / head for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor:
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def rank(vectors):
    """Row rank of a list of equal-length rational vectors."""
    rows = [list(v) for v in vectors]
    found = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for r in range(found + 1, len(rows)):
            factor = rows[r][col] / rows[found][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[found])]
        found += 1
    return found


def dense(row, width):
    """The coefficients of ``row`` as a dense list of ``width`` entries."""
    out = [Fraction(0)] * width
    for c, w in zip(row.cols, row.coeffs):
        out[c] = Fraction(w)
    return out


def prefix_rank_pick(vectors, need):
    """The greedy pick by the oracle: keep each vector that raises the rank.

    The first indices, in order, of ``need`` independent vectors; None
    when the family has smaller rank.
    """
    chosen = []
    for idx in range(len(vectors)):
        if need and rank(vectors[: idx + 1]) > rank(vectors[:idx]):
            chosen.append(idx)
            if len(chosen) == need:
                return chosen
    return chosen if len(chosen) == need else None


def basis_points(system):
    """Every extreme point of a row system, sorted, by brute force.

    Solves every square subsystem of the rows and keeps the solutions
    that satisfy all rows. This is C(rows, columns) solves, so keep the
    system small; it reads only each row's columns, coefficients,
    relation and right-hand side. Each row is scaled once to integers,
    so the solves and the feasibility test run on integers and only the
    kept points become Fractions.
    """
    width = len(system.columns)
    rows = [_integer_row(row, width) for row in system.rows]
    found = set()
    for subset in combinations(rows, width):
        solution = _integer_solve(subset)
        if solution is None:
            continue
        nums, den = solution
        if all(sum(a * x for a, x in zip(coeffs, nums)) <= rhs * den for coeffs, rhs in rows):
            found.add(solution)
    return sorted(tuple(Fraction(x, den) for x in nums) for nums, den in found)


def _integer_row(row, width):
    """A row as dense integer coefficients and right-hand side that read
    ``coeffs . x <= rhs``: scaled by the lcm of its denominators, and
    negated when the row is a ``>=`` row."""
    values = [Fraction(0)] * width + [Fraction(row.rhs)]
    for c, w in zip(row.cols, row.coeffs):
        values[c] = Fraction(w)
    scale = lcm(*[v.denominator for v in values])
    if row.relation == ">=":
        scale = -scale
    ints = [int(v * scale) for v in values]
    return ints[:-1], ints[-1]


def _integer_solve(rows):
    """Solve a square integer system by fraction-free Gauss-Jordan.

    Each step cross-multiplies by the pivot and divides exactly by the
    previous one, so at the end every diagonal entry is the last pivot.
    Returns the solution as (numerators, denominator) in lowest terms
    with a positive denominator, or None when the system is singular.
    """
    n = len(rows)
    aug = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col]
        p = head[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], head)]
        prev = p
    nums = [row[n] for row in aug]
    g = gcd(prev, *nums)
    if prev < 0:
        g = -g
    return tuple(x // g for x in nums), prev // g


# -- linear programming reference route ---------------------------------


def _fraction_pivot(tableau, cost, row, col):
    head = tableau[row][col]
    tableau[row] = [x / head for x in tableau[row]]
    pivot_row = tableau[row]
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            tableau[r] = [a - factor * b for a, b in zip(other, pivot_row)]
    factor = cost[col]
    if factor:
        cost[:] = [a - factor * b for a, b in zip(cost, pivot_row)]


def _fraction_iterate(tableau, basis, cost, usable, log):
    while True:
        enter = next((j for j in range(usable) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        best_key = None
        best_row = -1
        for i, row in enumerate(tableau):
            coeff = row[enter]
            if coeff > 0:
                key = (row[-1] / coeff, basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = i
        if best_key is None:
            return "unbounded"
        log.append(("step", best_row, enter, tableau[best_row][enter]))
        _fraction_pivot(tableau, cost, best_row, enter)
        basis[best_row] = enter


def fraction_solve_lp(num_vars, constraints, objective, sense="max", log=None):
    """Two-phase simplex on a dense Fraction tableau, Bland's rule.

    Constraints are (sparse terms, relation, rhs), variables are held
    nonnegative, and the result has ``status``, ``point`` and ``value``,
    as in the library's solver. The relation may also be ``=``, which
    the library's solver refuses: the midpoint LPs and
    ``convex_decompose`` here are written with equalities, and an ``=``
    row's artificial gets a column of its own. When ``log`` is a
    list, every pivot is appended to it as (kind, row, column, element),
    kind "step" for a simplex step and "cleanup" for an artificial
    driven out after phase one, and every redundant row dropped after
    phase one as ("drop", row, None, None).
    """
    zero, one = Fraction(0), Fraction(1)
    log = [] if log is None else log
    if sense not in ("max", "min"):
        raise ValueError(f"unknown sense {sense!r}")
    if len(objective) != num_vars:
        raise ValueError("objective length does not match variable count")
    goal = [Fraction(c) for c in objective]
    cost_vec = [-c for c in goal] if sense == "max" else list(goal)

    rows, relations, rhs_values = [], [], []
    for terms, relation, rhs in constraints:
        if relation not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {relation!r}")
        dense = [zero] * num_vars
        for col, coeff in terms:
            if not 0 <= col < num_vars:
                raise ValueError(f"column {col} out of range")
            dense[col] += Fraction(coeff)
        rhs = Fraction(rhs)
        if rhs < 0:
            dense = [-x for x in dense]
            rhs = -rhs
            relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
        rows.append(dense)
        relations.append(relation)
        rhs_values.append(rhs)

    m = len(rows)
    slack_count = sum(1 for rel in relations if rel in ("<=", ">="))
    art_start = num_vars + slack_count
    art_count = sum(1 for rel in relations if rel in (">=", "="))
    width = art_start + art_count

    tableau, basis = [], []
    next_slack, next_art = num_vars, art_start
    for i in range(m):
        row = rows[i] + [zero] * (width - num_vars) + [rhs_values[i]]
        if relations[i] == "<=":
            row[next_slack] = one
            basis.append(next_slack)
            next_slack += 1
        elif relations[i] == ">=":
            row[next_slack] = -one
            next_slack += 1
            row[next_art] = one
            basis.append(next_art)
            next_art += 1
        else:
            row[next_art] = one
            basis.append(next_art)
            next_art += 1
        tableau.append(row)

    if art_count:
        phase1 = [zero] * width
        for j in range(art_start, width):
            phase1[j] = one
        for i in range(m):
            if basis[i] >= art_start:
                phase1 = [a - b for a, b in zip(phase1, tableau[i][:-1])]
        if _fraction_iterate(tableau, basis, phase1, width, log) != "optimal":
            raise AssertionError("phase one cannot be unbounded")
        if any(tableau[i][-1] != 0 for i in range(m) if basis[i] >= art_start):
            return SimpleNamespace(status="infeasible", point=None, value=None)
        dummy = [zero] * width
        drop = []
        for i in range(m):
            if basis[i] < art_start:
                continue
            col = next((j for j in range(art_start) if tableau[i][j] != 0), None)
            if col is None:
                log.append(("drop", i, None, None))
                drop.append(i)
            else:
                log.append(("cleanup", i, col, tableau[i][col]))
                _fraction_pivot(tableau, dummy, i, col)
                basis[i] = col
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        m = len(tableau)

    tableau = [row[:art_start] + [row[-1]] for row in tableau]
    full_cost = cost_vec + [zero] * slack_count
    reduced = list(full_cost)
    for i in range(m):
        weight = full_cost[basis[i]]
        if weight:
            reduced = [a - weight * b for a, b in zip(reduced, tableau[i][:-1])]
    if _fraction_iterate(tableau, basis, reduced, art_start, log) == "unbounded":
        return SimpleNamespace(status="unbounded", point=None, value=None)

    point = [zero] * num_vars
    for i in range(m):
        if basis[i] < num_vars:
            point[basis[i]] = tableau[i][-1]
    value = sum((goal[j] * point[j] for j in range(num_vars)), zero)
    return SimpleNamespace(status="optimal", point=tuple(point), value=value)


def convex_decompose(instance, point, forbidden=()):
    """Write ``point`` as a convex combination of stable matchings by LP.

    ``point`` has one coordinate per edge of ``edge_pairs``; matchings
    are frozensets of (i, j) pairs, and those in ``forbidden`` carry no
    weight. Returns the weights found, or None when no combination
    exists.
    """
    columns = edge_pairs(instance)
    if len(point) != len(columns):
        raise ValueError("point dimension does not match the edge count")
    banned = {frozenset(m) for m in forbidden}
    pool = [m for m in stable_sets(instance) if m not in banned]
    rows = [
        ([(k, 1) for k, m in enumerate(pool) if edge in m], "=", point[c])
        for c, edge in enumerate(columns)
    ]
    rows.append(([(k, 1) for k in range(len(pool))], "=", 1))
    result = fraction_solve_lp(len(pool), rows, [0] * len(pool), "min")
    if result.status != "optimal":
        return None
    return {m: w for m, w in zip(pool, result.point) if w != 0}


# -- meet and join by component flips -----------------------------------


def flip_meet_join(decomposition):
    """The meet and join edge sets of a pair, from its difference cycles.

    Takes the library's ``Decomposition``: flipping the first matching on
    every component whose a-side prefers it (``a_prefers == 1``) gives
    the meet, and on every component whose a-side prefers the second
    (``a_prefers == 2``) the join.
    """

    def flip(side):
        edges = decomposition.m1.edges
        for comp in decomposition.components:
            if comp.a_prefers == side:
                edges = edges ^ comp.edge_set
        return edges

    return flip(1), flip(2)


# -- adjacency reference route ------------------------------------------

_POOLS = {}


def _stable_pool(instance):
    """``filter_stable`` of ``instance``, computed once per preference table."""
    key = (instance.a_prefs, instance.b_prefs)
    if key not in _POOLS:
        _POOLS[key] = filter_stable(instance)
    return _POOLS[key]


def midpoint_lp(instance, p, q):
    """The stable pool and the rows that write the midpoint of ``p`` and
    ``q`` as a convex combination of it.

    ``p`` and ``q`` are collections of (i, j) pairs. The pool is the
    ``filter_stable`` list, one variable per member; the rows are one
    equality per ``edge_pairs`` column and one for the total weight.
    """
    pool = _stable_pool(instance)
    p, q = set(p), set(q)
    rows = []
    for edge in edge_pairs(instance):
        terms = [(k, 1) for k, m in enumerate(pool) if edge in m]
        rows.append((terms, "=", Fraction((edge in p) + (edge in q), 2)))
    rows.append(([(k, 1) for k in range(len(pool))], "=", 1))
    return pool, rows


def midpoint_maxima(instance, p, q):
    """Each rival's largest weight in a decomposition of the midpoint of
    ``p`` and ``q``, one ``fraction_solve_lp`` maximum per rival.

    The rivals are the pool members other than ``p`` and ``q``, in pool
    order; each entry is (rival, maximum), the rival a tuple of sorted
    (i, j) pairs.
    """
    pool, rows = midpoint_lp(instance, p, q)
    ends = {tuple(sorted(p)), tuple(sorted(q))}
    maxima = []
    for k, m in enumerate(pool):
        if m in ends:
            continue
        objective = [int(i == k) for i in range(len(pool))]
        result = fraction_solve_lp(len(pool), rows, objective, "max")
        if result.status != "optimal":
            raise AssertionError("the midpoint of two stable matchings must be decomposable")
        maxima.append((m, result.value))
    return maxima
