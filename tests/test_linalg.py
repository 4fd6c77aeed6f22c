import random
from fractions import Fraction

from stablepoly.linalg import greedy_independent, scale_to_integers

from oracles import prefix_rank_pick, rank, solve_square

F = Fraction


def test_solve_square_exact():
    matrix = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(5), F(10)]
    assert solve_square(matrix, rhs) == [F(1), F(3)]


def test_solve_square_rational_coefficients():
    # Hilbert 3x3 is famously ill-conditioned in floats; exact here
    matrix = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
    x = [F(1), F(-2), F(3)]
    rhs = [sum(row[j] * x[j] for j in range(3)) for row in matrix]
    assert solve_square(matrix, rhs) == x


def test_solve_square_singular():
    matrix = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_square(matrix, [F(1), F(2)]) is None
    assert solve_square(matrix, [F(1), F(3)]) is None


def test_solve_square_trivial():
    assert solve_square([[F(5)]], [F(10)]) == [F(2)]
    assert solve_square([], []) == []


def test_solve_square_random_roundtrip():
    rng = random.Random(409)
    for _ in range(30):
        n = rng.randint(1, 5)
        matrix = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        x = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        rhs = [sum(row[j] * x[j] for j in range(n)) for row in matrix]
        got = solve_square(matrix, rhs)
        if got is not None:
            assert got == x


def terms(vector):
    """``vector`` as the ``(column, int)`` terms ``greedy_independent``
    reads, scaled to integers; zero entries stay as explicit terms, as
    ``polytope._integer_row`` keeps them."""
    return [(k, x) for k, x in enumerate(scale_to_integers(vector)[0])]


def test_greedy_independent_picks_first_basis():
    vectors = [
        [F(1), F(0)],
        [F(2), F(0)],
        [F(0), F(1)],
        [F(1), F(1)],
    ]
    rows = [terms(v) for v in vectors]
    assert greedy_independent(rows, 2) == [0, 2]
    assert greedy_independent(rows, 3) is None
    assert greedy_independent(rows, 0) == []


def test_rank():
    assert rank([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]) == 2
    assert rank([[F(0), F(0)]]) == 0
    assert rank([]) == 0


def test_greedy_independent_matches_prefix_rank():
    # rational families with zero vectors, repeats and combinations of
    # earlier vectors, so the pick has dependent vectors to skip
    rng = random.Random(612)
    for _ in range(300):
        width = rng.randint(1, 6)
        vectors = []
        for _ in range(rng.randint(0, 9)):
            roll = rng.random()
            if vectors and roll < 0.3:
                combo = [F(0)] * width
                for vec in rng.sample(vectors, rng.randint(1, len(vectors))):
                    k = F(rng.randint(-4, 4), rng.randint(1, 4))
                    combo = [a + k * b for a, b in zip(combo, vec)]
                vectors.append(combo)
            elif roll < 0.4:
                vectors.append([F(0)] * width)
            else:
                vectors.append(
                    [F(rng.randint(-5, 5), rng.randint(1, 7)) if rng.random() < 0.6 else F(0)
                     for _ in range(width)]
                )
        rows = [terms(v) for v in vectors]
        for need in range(width + 2):
            assert greedy_independent(rows, need) == prefix_rank_pick(vectors, need)
