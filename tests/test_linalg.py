import copy
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


def sparse(m):
    """Dense rows as the {column: entry} rows that `linalg.rank` takes."""
    return [dict(enumerate(row)) for row in m]


def sympy_rank(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]).rank()


@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_matrices(INTS), low_rank_matrices(FRACTIONS)))
def test_rank_matches_sympy(m):
    assert linalg.rank(sparse(m)) == sympy_rank(m)


def test_rank_of_empty_zero_and_single_rows():
    assert linalg.rank(sparse([])) == 0
    assert linalg.rank(sparse([[]])) == 0
    assert linalg.rank(sparse([[0] * 4 for _ in range(3)])) == 0
    assert linalg.rank(sparse([[Fraction(0)] * 2])) == 0
    assert linalg.rank(sparse([[0, Fraction(-2, 3), 5]])) == 1


def test_rank_of_integers_equals_rank_of_scaled_fractions():
    m = [[2, 4, 6, 0], [1, 2, 3, 0], [0, 1, 1, 7], [2, 5, 7, 7]]
    assert linalg.rank(sparse(m)) == 2
    assert linalg.rank(sparse([[Fraction(x, 7) for x in row] for row in m])) == 2


def test_rank_scales_coprime_denominators_exactly():
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


def test_rank_drops_explicit_zero_entries():
    assert linalg.rank([{3: 0, 5: 1}]) == 1
    # A pivot on column 3, where the first row is zero, would leave {5: 2} a
    # second echelon row.
    assert linalg.rank([{3: 0, 5: 1}, {5: 2}]) == 1
    assert linalg.rank([{3: 0, 5: 1}, {3: 1}]) == 2
    assert linalg.rank([{0: Fraction(0), 1: 0}]) == 0


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


def test_rank_of_mixed_int_and_fraction_rows():
    half = Fraction(1, 2)
    assert linalg.rank([{0: 1, 1: half}, {0: 2, 1: 1}]) == 1
    assert linalg.rank([{0: 2, 1: 1}, {0: Fraction(2, 3), 1: Fraction(1, 3)}, {1: 3}]) == 2
    assert linalg.rank([{0: half, 1: 3}, {0: 1, 1: 6}, {0: 1, 1: Fraction(6)}]) == 1


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
    """Row +-(e_a - e_b) per edge (a, b); a loop a = b gives a zero row."""
    return [{a: 0} if a == b else {a: sign, b: -sign} for (a, b), sign in zip(edges, signs)]


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
    # Zero-free int rows with content 1 are used as they are: the first two
    # become echelon rows, and the third is eliminated against them, so a
    # kernel that folded into its own rows would change a caller's row.  Rows
    # with explicit zeros and Fraction rows are rebuilt, and content is
    # divided out; none of that may show in the rows passed in.
    cases = [
        [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}, {2: 3, 0: -5}, {0: 2, 3: 4}],
        [{0: 0, 1: 3, 2: 0}, {1: 6, 2: 0, 3: -3}, {0: 0}, {3: 1, 1: 0, 2: 2}],
        [{0: Fraction(1, 2), 1: Fraction(-1, 3)}, {0: Fraction(3, 4), 1: Fraction(0), 2: Fraction(5)},
         {1: Fraction(2, 3), 2: 1}, {0: Fraction(3, 2), 1: -1}],
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
    rows = sparse(m) + [{c: x for c, x in row.items() if x} for row in sparse(m)]
    before = copy.deepcopy(rows)
    linalg.rank(rows)
    assert rows == before
