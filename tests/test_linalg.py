from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from circlespec import linalg

INTS = st.integers(min_value=-4, max_value=4)
FRACTIONS = st.builds(Fraction, INTS, st.integers(min_value=1, max_value=6))


@st.composite
def low_rank_matrices(draw, entries):
    """Products of a rows x k and a k x cols factor, k <= min(rows, cols), so
    that rank-deficient matrices are common."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.integers(0, min(rows, cols)))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=k, max_size=k))
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]


def sympy_rank(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]).rank()


@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_matrices(INTS), low_rank_matrices(FRACTIONS)))
def test_rank_matches_sympy(m):
    assert linalg.rank(m) == sympy_rank(m)


def test_rank_of_empty_zero_and_single_rows():
    assert linalg.rank([]) == 0
    assert linalg.rank([[]]) == 0
    assert linalg.rank([[0] * 4 for _ in range(3)]) == 0
    assert linalg.rank([[Fraction(0)] * 2]) == 0
    assert linalg.rank([[0, Fraction(-2, 3), 5]]) == 1


def test_rank_of_integers_equals_rank_of_scaled_fractions():
    m = [[2, 4, 6, 0], [1, 2, 3, 0], [0, 1, 1, 7], [2, 5, 7, 7]]
    assert linalg.rank(m) == 2
    assert linalg.rank([[Fraction(x, 7) for x in row] for row in m]) == 2


def test_rank_scales_coprime_denominators_exactly():
    p, q = Fraction(1, 1000003), Fraction(1, 999983)
    assert linalg.rank([[p, q], [3 * p, 3 * q]]) == 1
    assert linalg.rank([[p, q], [q, p]]) == 2
    assert linalg.rank([[p, q, 1], [p + q, 2 * q, 1], [q, q, 0]]) == 2


def test_rank_is_exact_beyond_float_precision():
    big = 10**17
    assert linalg.rank([[big, 1], [big + 1, 1]]) == 2
    assert linalg.rank([[big, big + 1], [2 * big, 2 * big + 2]]) == 1
    # The 12 x 12 Hilbert matrix is nonsingular, yet a float64 SVD rank with
    # the default tolerance reads 11; with one row made dependent it is 11.
    hilbert = [[Fraction(1, i + j + 1) for j in range(12)] for i in range(12)]
    assert linalg.rank(hilbert) == 12
    hilbert[11] = [x - 3 * y for x, y in zip(hilbert[0], hilbert[4])]
    assert linalg.rank(hilbert) == 11
