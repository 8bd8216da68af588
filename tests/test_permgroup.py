import itertools
import math

import pytest

from circlespec import (
    EnumerationCapError,
    Perm,
    PermSubgroup,
    closure,
    contiguous_block_group,
    orbit_count_free,
    wreath_block_group,
)


def test_perm_basics():
    p = Perm([1, 0, 2])
    assert p.images[0] == 1 and p.images[2] == 2
    assert p * p == Perm(range(3))
    assert Perm.from_cycle(4, (0, 1, 2)) == Perm([1, 2, 0, 3])
    assert p.serialize() == "[1,0,2]"
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


@pytest.mark.parametrize("images", [[True, False], [1.0, 0.0], ["a", 0]])
def test_perm_rejects_images_that_are_not_ints(images):
    with pytest.raises(ValueError):
        Perm(images)


def test_composition_acts_right_to_left():
    # (p * q)(i) = p(q(i))
    p = Perm.from_cycle(3, (0, 1))
    q = Perm.from_cycle(3, (1, 2))
    assert (p * q).images[1] == p.images[q.images[1]]
    assert [(p * q).images[i] for i in range(3)] == [1, 2, 0]


def test_closure_and_standard_groups():
    s3 = closure(3, [Perm.from_cycle(3, (0, 1)), Perm.from_cycle(3, (0, 1, 2))])
    assert len(s3) == 6
    assert len(closure(3, [Perm.from_cycle(3, (0, 1, 2))])) == 3
    s4 = PermSubgroup(4, [Perm.from_cycle(4, (0, 1)), Perm.from_cycle(4, (0, 1, 2, 3))])
    assert s4.order == 24
    assert PermSubgroup.trivial(5).order == 1
    assert PermSubgroup.symmetric(4).order == 24
    assert PermSubgroup.cyclic(4).order == 4


@pytest.mark.parametrize("n", range(7))
def test_closure_lists_every_permutation_in_order(n):
    # An identity generator adds nothing; for n < 2 it is the only one.
    gens = [Perm(range(n)), *PermSubgroup.symmetric(n).generators]
    expected = tuple(itertools.permutations(range(n)))
    found = closure(n, gens)
    assert found == expected
    assert set(found) == set(expected)


def test_closure_rejects_bad_degrees():
    with pytest.raises(ValueError, match="degree must be non-negative"):
        closure(-1, ())
    with pytest.raises(ValueError, match="generator degree 2 does not match 3"):
        closure(3, [Perm.from_cycle(3, (0, 1, 2)), Perm(range(2))])


def test_lagrange_divisibility():
    s4 = PermSubgroup.symmetric(4)
    for g in (
        PermSubgroup.trivial(4),
        PermSubgroup.cyclic(4),
        PermSubgroup(4, [Perm.from_cycle(4, (0, 1))]),
        PermSubgroup(4, [Perm.from_cycle(4, (0, 1, 2))]),
    ):
        assert s4.order % g.order == 0


def test_orbit_count_free_reference_values():
    assert orbit_count_free(PermSubgroup.trivial(3)) == 6
    assert orbit_count_free(PermSubgroup.symmetric(3)) == 1
    c2 = PermSubgroup(4, [Perm.from_cycle(4, (0, 1))])
    assert orbit_count_free(c2) == 12
    assert orbit_count_free(PermSubgroup.symmetric(4)) == 1


def test_orbit_count_free_equals_index_formula():
    for G in (
        PermSubgroup.cyclic(4),
        PermSubgroup(4, [Perm.from_cycle(4, (0, 1, 2))]),
        wreath_block_group(2, 2),
    ):
        assert orbit_count_free(G) == math.factorial(G.degree) // G.order


def test_orbit_count_free_cap():
    with pytest.raises(EnumerationCapError):
        orbit_count_free(PermSubgroup.trivial(6), tuple_cap=100)


def test_block_group_orders():
    assert contiguous_block_group(2, 2).order == 4
    assert contiguous_block_group(3, 2).order == 36
    assert wreath_block_group(2, 2).order == 8
    assert wreath_block_group(2, 3).order == 48


def test_contiguous_blocks_fix_block_membership():
    G = contiguous_block_group(2, 2)
    for p in G.elements:
        for i in range(4):
            assert p[i] // 2 == i // 2


def test_describe_is_json_ready():
    d = PermSubgroup.symmetric(3).describe()
    assert d["degree"] == 3 and d["order"] == 6
    assert all(isinstance(s, str) for s in d["generators"])


@pytest.mark.parametrize("block_group", [contiguous_block_group, wreath_block_group])
@pytest.mark.parametrize("block_size, blocks", [(0, 2), (2, 0), (-1, 1)])
def test_block_groups_reject_empty_blocks(block_group, block_size, blocks):
    with pytest.raises(ValueError, match="block_size and blocks must be >= 1"):
        block_group(block_size, blocks)


@pytest.mark.parametrize(
    "block_group",
    [contiguous_block_group, wreath_block_group, lambda size, blocks: PermSubgroup.cyclic(size * blocks)],
    ids=["contiguous_block_group", "wreath_block_group", "cyclic"],
)
def test_block_groups_admit_the_degree_before_building_generators(block_group, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a generator was built before the degree was admitted")

    monkeypatch.setattr(Perm, "from_cycle", forbidden)
    with pytest.raises(EnumerationCapError, match="^400000 permuted points exceed the cap 8$"):
        block_group(200000, 2)


# Literal generator lists: the named groups are built from cycles, and these
# pin the images each constructor hands to the rank route and to `describe`.
SYMMETRIC_GENERATORS = {
    0: [],
    1: [],
    2: [[1, 0]],
    3: [[1, 0, 2], [1, 2, 0]],
    4: [[1, 0, 2, 3], [1, 2, 3, 0]],
    5: [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
    6: [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]],
    7: [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]],
    8: [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]],
}


@pytest.mark.parametrize("n", range(9))
def test_symmetric_generators_are_the_first_transposition_and_the_n_cycle(n):
    G = PermSubgroup.symmetric(n)
    assert [list(g.images) for g in G.generators] == SYMMETRIC_GENERATORS[n]
    assert G.order == math.factorial(n)


@pytest.mark.parametrize(
    "build, block_size, blocks, generators",
    [
        (contiguous_block_group, 2, 3, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]),
        (wreath_block_group, 2, 3, [
            [1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4], [2, 3, 0, 1, 4, 5], [0, 1, 4, 5, 2, 3],
        ]),
        (wreath_block_group, 3, 2, [
            [1, 0, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 3, 5], [0, 1, 2, 4, 5, 3], [3, 4, 5, 0, 1, 2],
        ]),
    ],
)
def test_block_group_generators(build, block_size, blocks, generators):
    assert [list(g.images) for g in build(block_size, blocks).generators] == generators
