import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from circlespec import (
    AtomicMeasure,
    Caps,
    CirclePoint,
    Coupling,
    FactorStructure,
    FiniteSpace,
    GeneratorAllocator,
    MarkovOp,
    MeasureFormatError,
    Perm,
    PermSubgroup,
    Relation,
    multiplicity,
)
from circlespec.circle import _PackedCodec

from tests.helpers import point_strategy as helper_points, small_measures


def point_strategy(max_index=5, max_exp=3):
    rationals = st.fractions(min_value=0, max_value=1).map(lambda q: q % 1)
    generics = st.dictionaries(
        st.integers(min_value=0, max_value=max_index),
        st.integers(min_value=-max_exp, max_value=max_exp).filter(lambda e: e != 0),
        max_size=3,
    )
    return st.builds(CirclePoint, rationals, generics)


points = point_strategy()


def test_identity_and_generator_basics():
    e = CirclePoint.identity()
    assert e.is_identity and e.is_rational
    g = CirclePoint.generator(3)
    assert g.generic == ((3, 1),) and g.rational == 0
    assert not g.is_identity and not g.is_rational


HALVES = FiniteSpace(["a", "b"], [Fraction(1, 2), Fraction(1, 2)])
VALUES = [
    CirclePoint.generator(0),
    AtomicMeasure({CirclePoint.identity(): 1}),
    Perm([1, 0]),
    PermSubgroup.symmetric(2),
    HALVES,
    Coupling(HALVES, HALVES, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]),
    MarkovOp.mean(HALVES, HALVES),
    Relation((CirclePoint.generator(0),), (1,), CirclePoint.identity()),
    multiplicity(AtomicMeasure({CirclePoint.generator(0): 1}), 2, PermSubgroup.symmetric(2)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("name", ["existing", "new"])
def test_value_types_refuse_every_assignment(value, name):
    """The value types share one guard, `errors.Immutable`: assigning a slot
    or any other attribute raises and names the type."""
    attr = type(value).__slots__[0] if name == "existing" else "extra"
    before = getattr(value, attr, None)
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        setattr(value, attr, 0)
    assert getattr(value, attr, None) is before


G0, ONE_POINT = CirclePoint.generator(0), FiniteSpace(["x"], [1])
# (build, a build that differs in one field): each `errors.Record` equals and
# hashes as a fresh build of itself and differs from the other.
RECORDS = {
    "Perm": (lambda: Perm([1, 0, 2]), lambda: Perm([0, 2, 1])),
    "Relation": (lambda: Relation((G0,), (1,), CirclePoint(Fraction(1, 2))),
                 lambda: Relation((G0,), (-1,), CirclePoint(Fraction(1, 2)))),
    "Caps": (lambda: Caps(5), lambda: Caps(5, 4095)),
    "FactorStructure": (lambda: FactorStructure((HALVES, ONE_POINT), (0,)),
                        lambda: FactorStructure((HALVES, ONE_POINT), (1,))),
    "FiniteSpace": (lambda: FiniteSpace(["a", "b"], [Fraction(1, 2)] * 2), lambda: FiniteSpace(["a", "c"], ["1/2"] * 2)),
}


@pytest.mark.parametrize("build, variant", RECORDS.values(), ids=RECORDS)
def test_records_built_twice_are_equal_and_hash_equal(build, variant):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != variant() and not a == variant()


def test_finite_spaces_from_fractions_and_strings_are_equal_and_hash_equal():
    a, b = FiniteSpace(["a", "b"], [Fraction(1, 2)] * 2), FiniteSpace(["a", "b"], ["1/2"] * 2)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("value", [VALUES[1], VALUES[5], VALUES[6]], ids=lambda v: type(v).__name__)
def test_measures_couplings_and_operators_are_unhashable(value):
    with pytest.raises(TypeError, match="unhashable type"):
        hash(value)


def test_a_coupling_never_equals_an_operator():
    """On one point, the coupling [[1]] and the operator [[1]] have the same
    spaces, `den` and `nums`; records of different classes are still unequal."""
    c, m = Coupling(ONE_POINT, ONE_POINT, [[1]]), MarkovOp(ONE_POINT, ONE_POINT, [[1]])
    assert (c.left, c.right, c.den, c.nums) == (m.source, m.target, m.den, m.nums)
    assert c != m and m != c and not c == m


def test_rational_part_reduced_modulo_one():
    assert CirclePoint(Fraction(5, 4)).rational == Fraction(1, 4)
    assert CirclePoint(Fraction(-1, 3)).rational == Fraction(2, 3)
    assert CirclePoint(2).is_identity


def test_product_merges_exponents_with_cancellation():
    p = CirclePoint(Fraction(1, 4), {1: 2})
    q = CirclePoint(Fraction(3, 4), {1: -1, 2: 1})
    r = p * q
    assert r.rational == 0
    assert r.generic == ((1, 1), (2, 1))
    assert str(r) == "g1^1 * g2^1"


def test_full_cancellation_reaches_identity():
    p = CirclePoint(Fraction(1, 3), {0: 1, 4: -2})
    assert (p * p.inverse()).is_identity


def test_power_is_repeated_product():
    p = CirclePoint(Fraction(1, 6), {2: -1})
    assert p**3 == p * p * p
    assert p**0 == CirclePoint.identity()
    assert p**-2 == (p.inverse()) ** 2
    with pytest.raises(ValueError):
        p ** Fraction(1, 2)


def test_constructor_rejects_bad_generators():
    with pytest.raises(ValueError):
        CirclePoint(0, {-1: 2})
    with pytest.raises(ValueError):
        CirclePoint(0, {1: Fraction(1, 2)})


@pytest.mark.parametrize("index, exponent", [(0, 1), (7, -3), (2, 0), (2**70, 5)])
def test_generator_is_the_constructed_point(index, exponent):
    g, built = CirclePoint.generator(index, exponent), CirclePoint(0, {index: exponent})
    assert (g.rational, g.generic, hash(g)) == (built.rational, built.generic, hash(built))


@pytest.mark.parametrize(
    "index, exponent, message",
    [
        (-1, 1, "generator index must be a non-negative int, got -1"),
        (True, 1, "generator index must be a non-negative int, got True"),
        (1.0, 1, "generator index must be a non-negative int, got 1.0"),
        (0, False, "exponent must be an int, got False"),
        (0, Fraction(1, 2), "exponent must be an int, got Fraction(1, 2)"),
    ],
)
def test_generator_rejects_what_the_constructor_rejects(index, exponent, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CirclePoint.generator(index, exponent)


def test_allocator_produces_distinct_indices():
    alloc = GeneratorAllocator()
    a, b, c = alloc.fresh_point(), alloc.fresh_point(), alloc.fresh_point()
    assert len({a, b, c}) == 3
    assert a.generic[0][0] < b.generic[0][0] < c.generic[0][0]


def test_str_and_parse_round_trip_examples():
    samples = [
        CirclePoint.identity(),
        CirclePoint(Fraction(2, 7)),
        CirclePoint(0, {0: 1, 3: -2}),
        CirclePoint(Fraction(1, 2), {5: 4}),
    ]
    for p in samples:
        assert CirclePoint.parse(str(p)) == p


def test_parse_rejects_malformed_text():
    for text in ("g1^0", "g1^1 * g1^2", "1/2 * 1/3", "h1^1", "", "g-1^1",
                 "1/0", "g0^1 * 1/0", "g\u0661^1", "\u0661/\u0663", "-1/3"):
        with pytest.raises(MeasureFormatError):
            CirclePoint.parse(text)


@given(points, points, points)
def test_group_laws(a, b, c):
    e = CirclePoint.identity()
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * e == a
    assert (a * a.inverse()).is_identity


@given(points)
def test_parse_round_trip(p):
    assert CirclePoint.parse(str(p)) == p


@given(points, points)
def test_total_order_is_consistent(a, b):
    assert (a <= b) or (b <= a)
    if a <= b and b <= a:
        assert a == b
    # Every comparison operator agrees with the one order, `sort_key`.
    ka, kb = a.sort_key(), b.sort_key()
    assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)


@given(st.lists(points, min_size=1, max_size=6))
def test_sort_is_stable_total_order(ps):
    s = sorted(ps)
    for x, y in zip(s, s[1:]):
        assert x <= y
        assert y >= x and not x > y and not y < x
    assert s == sorted(ps, key=CirclePoint.sort_key)


def test_unique_factorization_over_fresh_generators():
    # Distinct multisets of distinct generators give distinct products.
    gens = [CirclePoint.generator(i) for i in range(4)]
    products = {}
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(range(4), size):
            prod = CirclePoint.identity()
            for i in combo:
                prod = prod * gens[i]
            assert prod not in products, (combo, products[prod])
            products[prod] = combo


def assert_codec_order(points):
    """Sorting packed keys on the codec's integer sort key gives the order of
    CirclePoint.sort_key, for the points and for their pairwise products,
    and each codec builds one Fraction per residue it decodes."""
    for n in (1, 2):
        codec = _PackedCodec(points, n)
        tuples = list(itertools.product(points, repeat=n))
        keys = [codec.product(map(codec.key, t)) for t in tuples]
        products = [math.prod(t, start=CirclePoint()) for t in tuples]
        by_int = [codec.point(*codec.sort_key(key)) for key in sorted(keys, key=codec.sort_key)]
        assert by_int == sorted(products, key=CirclePoint.sort_key)
        ordered = codec.ordered((key, key) for key in set(keys))
        assert [p for p, _ in ordered] == sorted(set(products), key=CirclePoint.sort_key)
        assert all(codec.product([codec.key(p)]) == key for p, key in ordered)
        assert sorted(codec.fractions.values()) == sorted({p.rational for p in products})


@given(st.lists(helper_points(), min_size=1, max_size=5))
def test_codec_integer_order_matches_point_order(ps):
    assert_codec_order(ps)


def test_codec_integer_order_with_coprime_denominators():
    # The lcm of the denominators is about 10^12.
    assert_codec_order(
        [
            CirclePoint(Fraction(1, 1000003), {0: -2}),
            CirclePoint(Fraction(999982, 999983), {0: 1, 1: -3}),
            CirclePoint(Fraction(500001, 1000003)),
            CirclePoint(0, {1: -1}),
            CirclePoint(Fraction(1, 999983), {0: -2}),
        ]
    )


def assert_codec_faithful(points, n):
    """Over every multiset of up to n of the points: equal keys exactly for
    equal products, each key decoding to its product, and the integer sort
    key ordering the keys as the products sort."""
    codec = _PackedCodec(points, n)
    multisets = [ms for j in range(n + 1) for ms in itertools.combinations_with_replacement(points, j)]
    keys = [codec.product(map(codec.key, ms)) for ms in multisets]
    products = [math.prod(ms, start=CirclePoint()) for ms in multisets]
    assert len(set(zip(keys, products))) == len(set(keys)) == len(set(products))
    assert [codec.point(*codec.sort_key(key)) for key in keys] == products
    by_key = sorted(range(len(keys)), key=lambda i: codec.sort_key(keys[i]))
    assert [products[i] for i in by_key] == sorted(products)


@given(small_measures(), st.integers(min_value=1, max_value=4))
def test_codec_keys_are_faithful_on_products_of_up_to_n_atoms(mu, n):
    assert_codec_faithful(list(mu.support()), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_codec_holds_the_extreme_digit(n, e):
    # n copies of g0^e or of g1^-e reach the digit +-n*e, the extreme that the
    # base 2^w > 2*n*e must hold, next to digits of the other sign and to a
    # rational digit that is zero or not
    atoms = [
        CirclePoint(0, {0: e}),
        CirclePoint(Fraction(1, 2), {0: -e}),
        CirclePoint(Fraction(1, 3), {1: -e}),
        CirclePoint(Fraction(2, 3), {1: e, 2: -e}),
        CirclePoint(0, {2: e}),
    ]
    assert_codec_faithful(atoms, n)


def test_codec_reads_a_negative_digit_above_a_zero_rational_digit():
    # (1/2 g0) * (1/2 g1^-1) = g0 g1^-1: the rational digit wraps to 0 and the
    # generic part is negative, so the key wraps below the modulus
    atoms = [CirclePoint(Fraction(1, 2), {0: 1}), CirclePoint(Fraction(1, 2), {1: -1}), CirclePoint(0, {1: -1})]
    codec = _PackedCodec(atoms, 2)
    key = codec.product(map(codec.key, atoms[:2]))
    assert 0 <= key < codec.modulus and codec.sort_key(key) == (0, ((0, 1), (1, -1)))
    assert codec.sort_key(codec.product([codec.key(atoms[2])] * 2)) == (0, ((1, -2),))
    assert_codec_faithful(atoms, 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_codec_packs_a_shift_with_a_larger_exponent_than_every_atom(m):
    # the translate check packs m-multisets times a under one codec of power m + 1
    atoms = [CirclePoint(0, {0: 1}), CirclePoint(Fraction(1, 4), {1: -1}), CirclePoint(Fraction(1, 2))]
    a = CirclePoint(Fraction(1, 3), {0: -7, 5: 9})
    codec = _PackedCodec([*atoms, a], m + 1)
    for ms in itertools.combinations_with_replacement(atoms, m):
        key = codec.product([*map(codec.key, ms), codec.key(a)])
        assert codec.point(*codec.sort_key(key)) == math.prod(ms, start=a)
    assert_codec_faithful([*atoms, a], m + 1)


ROTATIONS = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)])
RATIONAL_MEASURES = st.lists(ROTATIONS, min_size=1, max_size=4).map(
    lambda rs: AtomicMeasure((CirclePoint(r), Fraction(1)) for r in rs)
)
# negating either key takes its rotation numerator and its generic part below zero
BORROW = AtomicMeasure({CirclePoint(Fraction(1, 3), {0: 1}): 1, CirclePoint(Fraction(2, 3), {0: 1}): 1})


@given(st.one_of(small_measures(), RATIONAL_MEASURES), st.integers(min_value=1, max_value=4))
@example(BORROW, 1)
@example(BORROW, 2)
@example(BORROW, 3)
@example(BORROW, 4)
def test_negated_keys_are_inverse_keys(mu, n):
    """`relation_scan` takes each inverse's key as the negated key."""
    codec = _PackedCodec(mu.support(), n)
    identity = codec.key(CirclePoint.identity())
    for p in mu.support():
        key = codec.key(p)
        assert -key % codec.modulus == codec.key(p.inverse())
        assert codec.product((key, -key % codec.modulus)) == identity


def test_codec_keys_spread_over_int_hashes():
    # int hashes reduce modulo 2^61 - 1, where 2^(w*j) takes only 61 values:
    # without the odd multipliers the 20 100 pair products of 200 generators
    # would share 1 891 hash values, and every dict keyed by them would crowd;
    # the rotation digit above the generic digits, here i/6, must not crowd them either
    for rotation in (lambda i: 0, lambda i: Fraction(i, 6)):
        atoms = [CirclePoint(rotation(i), {i: 1}) for i in range(200)]
        codec = _PackedCodec(atoms, 2)
        keys = {codec.product(map(codec.key, pair)) for pair in itertools.combinations_with_replacement(atoms, 2)}
        assert len(keys) == 20100
        assert len({hash(key) for key in keys}) > 0.99 * len(keys)
