import copy

from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from circlespec import linalg


def sympy_rank(pairs, columns):
    """Rank of the incidence matrix: one row e_i - e_j per pair (i, j), so a loop is a zero row."""
    rows = [[0] * columns for _ in pairs]
    for row, (i, j) in zip(rows, pairs):
        row[i] += 1
        row[j] -= 1
    return DomainMatrix([list(map(ZZ, row)) for row in rows], (len(rows), columns), ZZ).rank()


@st.composite
def column_pairs(draw, max_columns=30):
    """(columns, pairs) on up to 30 columns: loops (i, i) among them, and
    some pairs given again, as they are or reversed, in a shuffled order."""
    columns = draw(st.integers(1, max_columns))
    column = st.integers(0, columns - 1)
    pairs = draw(st.lists(st.tuples(column, column), max_size=2 * columns))
    again = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(again), max_size=len(again)))
    pairs += [(j, i) if flip else (i, j) for (i, j), flip in zip(again, flips)]
    return columns, draw(st.permutations(pairs))


@settings(max_examples=150, deadline=None)
@given(column_pairs())
def test_rank_matches_sympy(case):
    columns, pairs = case
    assert linalg.rank(pairs) == sympy_rank(pairs, columns)


def test_rank_of_empty_rows():
    assert linalg.rank([]) == 0
    assert linalg.rank([(3, 3)]) == 0
    assert linalg.rank([(0, 0), (2, 5), (1, 1)]) == 1
    assert linalg.rank([(4, 4)] * 5 + [(0, 1), (1, 0)]) == 1


def test_rank_does_not_need_sorted_keys():
    assert linalg.rank([(5, 2), (2, 5)]) == 1
    assert linalg.rank([(9, 0), (4, 0), (9, 4)]) == 2
    pairs = [(0, 1), (2, 0), (3, 4), (4, 2), (5, 5)]
    reversed_pairs = [(j, i) for i, j in pairs]
    assert linalg.rank(reversed_pairs) == linalg.rank(pairs) == sympy_rank(pairs, 6) == 4


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


def test_rank_of_a_cycle_of_differences_is_size_minus_one():
    for n in (2, 3, 10):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        assert linalg.rank(cycle) == n - 1
        two_cycles = cycle + [(n + (i + 1) % n, n + i) for i in range(n)]
        assert linalg.rank(two_cycles) == 2 * n - 2


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
    )
))
def test_rank_of_difference_rows_is_size_minus_components(case):
    # The kernel of the rows e_a - e_b is spanned by the component indicators.
    n, edges = case
    assert linalg.rank(edges) == n - components(n, edges)


def test_rank_leaves_the_caller_rows_unchanged():
    # Each case runs finds that halve a path of three or more columns, so a
    # kernel that kept its parents in the rows passed in would change them.
    cases = [
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)],
        [(3, 2), (2, 1), (1, 0), (3, 0), (0, 3)],
        [(0, 1), (2, 3), (1, 3), (0, 2), (1, 1)],
    ]
    for pairs in cases:
        before = copy.deepcopy(pairs)
        first = linalg.rank(pairs)
        assert pairs == before
        assert linalg.rank(pairs) == first == sympy_rank(before, 4)


@settings(max_examples=100, deadline=None)
@given(column_pairs())
def test_rank_never_changes_its_input(case):
    _, pairs = case
    rows = pairs + pairs
    before = copy.deepcopy(rows)
    linalg.rank(rows)
    assert rows == before
