"""Slow, deliberately independent re-derivations used as test oracles.

Everything here works off the raw preference tuples and raw row data:
no ranks, partner maps, cover sets, or linear algebra from the package
proper. These exist to disagree loudly when the fast code drifts, so
clarity beats speed throughout.
"""

from fractions import Fraction
from itertools import combinations


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


def is_stable_pairs(instance, pairs):
    """No edge outside the matching preferred by both of its endpoints."""
    chosen = set(pairs)
    a_partner = {i: j for i, j in pairs}
    b_partner = {j: i for i, j in pairs}
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
            return False
    return True


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


def basis_points(system):
    """Every extreme point of a row system, sorted, by brute force.

    Solves every square subsystem of the rows and keeps the solutions
    that satisfy all rows. This is C(rows, columns) solves, so keep the
    system small; it reads only each row's columns, coefficients,
    relation and right-hand side.
    """
    width = len(system.columns)

    def dense(row):
        out = [Fraction(0)] * width
        for c, w in zip(row.cols, row.coeffs):
            out[c] = w
        return out

    def feasible(point):
        for row in system.rows:
            value = sum((w * point[c] for c, w in zip(row.cols, row.coeffs)), Fraction(0))
            if (value > row.rhs) if row.relation == "<=" else (value < row.rhs):
                return False
        return True

    found = set()
    for subset in combinations(system.rows, width):
        solution = solve_square([dense(row) for row in subset], [row.rhs for row in subset])
        if solution is not None and feasible(solution):
            found.add(tuple(solution))
    return sorted(found)
