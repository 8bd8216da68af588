import copy
import math
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from circlespec import linalg

INTS = st.integers(min_value=-4, max_value=4)
FRACTIONS = st.builds(Fraction, INTS, st.integers(min_value=1, max_value=6))
MILLIONS = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def low_rank_matrices(draw, entries, size=8):
    """Products of a rows x k and a k x cols factor, k <= min(rows, cols) and
    rows, cols <= size, so that rank-deficient matrices are common."""
    rows, cols = draw(st.integers(1, size)), draw(st.integers(1, size))
    k = draw(st.integers(0, min(rows, cols)))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=k, max_size=k))
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]


def sparse(m):
    """Dense rows as the {column: nonzero int} rows that `linalg.rank` takes:
    each row is scaled by the lcm of its denominators and loses its zeros,
    neither of which changes the rank."""
    rows = []
    for row in m:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append({c: int(x * den) for c, x in enumerate(row) if x})
    return rows


def sympy_rank(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]).rank()


@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_matrices(INTS), low_rank_matrices(FRACTIONS)))
def test_rank_matches_sympy(m):
    assert linalg.rank(sparse(m)) == sympy_rank(m)


@settings(max_examples=100, deadline=None)
@given(low_rank_matrices(MILLIONS, size=10))
def test_rank_is_exact_as_entries_grow(m):
    # No content is divided out, so on these products the entries grow
    # through elimination, to hundreds of bits from the factors' 20.
    assert linalg.rank(sparse(m)) == sympy_rank(m)


def test_rank_of_empty_zero_and_single_rows():
    assert linalg.rank(sparse([])) == 0
    assert linalg.rank(sparse([[]])) == 0
    assert linalg.rank(sparse([[0] * 4 for _ in range(3)])) == 0
    assert linalg.rank(sparse([[Fraction(0)] * 2])) == 0
    assert linalg.rank(sparse([[0, Fraction(-2, 3), 5]])) == 1


def test_rank_of_integer_rows_that_sparse_builds():
    m = [[2, 4, 6, 0], [1, 2, 3, 0], [0, 1, 1, 7], [2, 5, 7, 7]]
    assert linalg.rank(sparse(m)) == 2
    assert linalg.rank(sparse([[Fraction(x, 7) for x in row] for row in m])) == 2


def test_rank_of_large_coprime_integer_entries():
    p, q = Fraction(1, 1000003), Fraction(1, 999983)
    assert linalg.rank(sparse([[p, q], [3 * p, 3 * q]])) == 1
    assert linalg.rank(sparse([[p, q], [q, p]])) == 2
    assert linalg.rank(sparse([[p, q, 1], [p + q, 2 * q, 1], [q, q, 0]])) == 2


def test_rank_is_exact_beyond_float_precision():
    big = 10**17
    assert linalg.rank(sparse([[big, 1], [big + 1, 1]])) == 2
    assert linalg.rank(sparse([[big, big + 1], [2 * big, 2 * big + 2]])) == 1
    # The 12 x 12 Hilbert matrix is nonsingular, yet a float64 SVD rank with
    # the default tolerance reads 11; with one row made dependent it is 11.
    hilbert = [[Fraction(1, i + j + 1) for j in range(12)] for i in range(12)]
    assert linalg.rank(sparse(hilbert)) == 12
    hilbert[11] = [x - 3 * y for x, y in zip(hilbert[0], hilbert[4])]
    assert linalg.rank(sparse(hilbert)) == 11


def test_rank_of_empty_rows():
    assert linalg.rank([{}]) == 0
    assert linalg.rank([{}, {2: 1}, {}]) == 1
    assert linalg.rank([{}] * 5 + [{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1


def test_rank_does_not_need_sorted_keys():
    assert linalg.rank([{5: 1, 2: 3}, {2: 6, 5: 2}]) == 1
    assert linalg.rank([{9: 1, 0: 1}, {0: 1, 9: -1}, {4: 1, 9: 1, 0: 2}]) == 3
    m = [[0, 1, 2], [3, 0, 1], [3, 2, 5]]
    reversed_rows = [dict(reversed(list(enumerate(row)))) for row in m]
    assert linalg.rank(reversed_rows) == sympy_rank(m) == 2


def components(n, edges):
    """Connected components of the graph on 0..n-1 with these edges."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, b in edges:
        root[find(a)] = find(b)
    return len({find(i) for i in range(n)})


def difference_rows(edges, signs):
    """Row +-(e_a - e_b) per edge (a, b); a loop a = b gives the empty row."""
    return [{} if a == b else {a: sign, b: -sign} for (a, b), sign in zip(edges, signs)]


def test_rank_of_a_cycle_of_differences_is_size_minus_one():
    for n in (2, 3, 10):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        assert linalg.rank(difference_rows(cycle, [1] * n)) == n - 1
        two_cycles = cycle + [(n + i, n + (i + 1) % n) for i in range(n)]
        assert linalg.rank(difference_rows(two_cycles, [1, -1] * n)) == 2 * n - 2


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
        st.lists(st.sampled_from((1, -1)), min_size=2 * n, max_size=2 * n),
    )
))
def test_rank_of_difference_rows_is_size_minus_components(case):
    # The kernel of the rows e_a - e_b is spanned by the component indicators.
    n, edges, signs = case
    assert linalg.rank(difference_rows(edges, signs)) == n - components(n, edges)


def test_rank_leaves_the_caller_rows_unchanged():
    # Rows are used as they are: the first two become echelon rows, and the
    # third is eliminated against them, so a kernel that folded into its own
    # rows would change a caller's row.  A row whose leading entry the pivot's
    # does not divide is rebuilt scaled ({1: 2, 2: 5} against {1: 3, 2: -1},
    # {0: 9, 2: 60} against {0: 6, 1: -4}); none of that may show in the rows
    # passed in.
    cases = [
        [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}, {2: 3, 0: -5}, {0: 2, 3: 4}],
        [{1: 3, 2: -1}, {1: 6, 3: -3}, {1: 2, 2: 5}, {3: 1, 2: 2}],
        [{0: 6, 1: -4}, {0: 9, 2: 60}, {1: 4, 2: 6}, {0: 9, 1: -6}],
    ]
    for rows in cases:
        before = copy.deepcopy(rows)
        first = linalg.rank(rows)
        assert rows == before
        assert linalg.rank(rows) == first == sympy_rank(
            [[Fraction(row.get(c, 0)) for c in range(4)] for row in before]
        )


@settings(max_examples=100, deadline=None)
@given(st.one_of(low_rank_matrices(INTS), low_rank_matrices(FRACTIONS)))
def test_rank_never_changes_its_input(m):
    rows = sparse(m) + sparse(m)
    before = copy.deepcopy(rows)
    linalg.rank(rows)
    assert rows == before
