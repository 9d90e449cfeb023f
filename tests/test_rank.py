from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cellres.rank import matrix_rank


def rank_fraction_oracle(rows, ncols):
    """Oracle: ordinary Gaussian elimination over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, len(m)):
            factor = m[i][c] / pivot
            for j in range(c, ncols):
                m[i][j] -= factor * m[rank][j]
        rank += 1
    return rank


def test_hand_cases():
    assert matrix_rank([], 0) == 0
    assert matrix_rank([], 3) == 0
    assert matrix_rank([[0, 0], [0, 0]], 2) == 0
    assert matrix_rank([[1, 0], [0, 1]], 2) == 2
    assert matrix_rank([[1, 2], [2, 4]], 2) == 1
    assert matrix_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 3) == 2
    assert matrix_rank([[0, 1], [1, 0], [1, 1]], 2) == 2


@settings(max_examples=200)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6), min_size=1, max_size=6))
def test_pure_matches_fraction_oracle(rows):
    ncols = len(rows[0])
    rows = [r[:ncols] + [0] * (ncols - len(r)) for r in rows]
    assert matrix_rank(rows, ncols) == rank_fraction_oracle(rows, ncols)


def test_big_integers_stay_exact():
    big = 10 ** 30
    assert matrix_rank([[big, 0], [0, big]], 2) == 2
    # minors far past 64 bits arise mid-elimination on a Hilbert-like pattern
    n = 12
    grow = [[(i + j + 1) ** 9 for j in range(n)] for i in range(n)]
    assert matrix_rank(grow, n) == rank_fraction_oracle(grow, n)
