import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circlespec import (
    AtomicMeasure,
    CirclePoint,
    GeneratorAllocator,
    MeasureFormatError,
    generic_measure,
    measure_from_json,
    measure_to_json,
    parse_fraction,
    relation_scan,
)
from circlespec import measure
from circlespec.measure import Relation

from tests.helpers import designed_relation_measure, mass, small_measures


def brute_convolve(mu, nu):
    acc = Counter()
    for (p, wp), (q, wq) in itertools.product(mu.items(), nu.items()):
        acc[p * q] += wp * wq
    return dict(acc)


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-2") == Fraction(-2)
    for bad in ("1.5", "a/b", "1/2/3", "", "1/0", "\u0661/\u0663", "\u0661", "\u00b2"):
        with pytest.raises(MeasureFormatError):
            parse_fraction(bad)


def test_constructor_merges_and_rejects_nonpositive():
    x = CirclePoint.generator(0)
    mu = AtomicMeasure([(x, Fraction(1, 3)), (x, Fraction(1, 3))])
    assert mu.weight(x) == Fraction(2, 3)
    with pytest.raises(ValueError):
        AtomicMeasure({x: Fraction(0)})
    with pytest.raises(ValueError):
        AtomicMeasure({x: Fraction(-1, 2)})


def test_delta_and_translate_dual_routes():
    alloc = GeneratorAllocator()
    mu = generic_measure(3, alloc)
    a = alloc.fresh_point()
    assert mu.translate(a) == mu.convolve(AtomicMeasure({a: 1}))
    assert mu.translate(CirclePoint.identity()) == mu


def test_convolution_matches_brute_force_on_relation_measure():
    mu = designed_relation_measure()
    conv = mu.convolve(mu)
    brute = brute_convolve(mu, mu)
    assert dict(conv.items()) == brute
    assert mass(conv) == mass(mu)**2


def test_convolution_multiplies_points_without_a_codec(monkeypatch):
    def forbidden(*args):
        raise AssertionError("convolution built a codec")

    monkeypatch.setattr(measure, "_PackedCodec", forbidden)
    mu = designed_relation_measure()
    assert dict(mu.convolve(mu).items()) == brute_convolve(mu, mu)
    cube = AtomicMeasure(brute_convolve(AtomicMeasure(brute_convolve(mu, mu)), mu))
    assert list(mu.convolve_power(3).items()) == list(cube.items())


def test_convolve_power_matches_iterated_convolve():
    mu = generic_measure(3)
    assert mu.convolve_power(1) == mu
    assert mu.convolve_power(3) == mu.convolve(mu).convolve(mu)
    with pytest.raises(ValueError):
        mu.convolve_power(0)


@settings(max_examples=40, deadline=None)
@given(small_measures(), st.integers(min_value=1, max_value=4))
def test_convolve_power_matches_point_keyed_convolution(mu, k):
    brute = mu
    for _ in range(k - 1):
        brute = AtomicMeasure(brute_convolve(brute, mu))
    assert list(mu.convolve_power(k).items()) == list(brute.items())


def test_convolution_meets_mod_one_and_wide_exponents():
    # 3/4 * 3/4 lands on 1/2 only modulo 1: both products must add weight there.
    zero, half, three_quarters = (CirclePoint(Fraction(r, 4)) for r in (0, 2, 3))
    mu = AtomicMeasure({zero: Fraction(1, 5), half: Fraction(2, 5), three_quarters: Fraction(2, 5)})
    square = mu.convolve_power(2)
    assert square.weight(half) == 2 * Fraction(1, 5) * Fraction(2, 5) + Fraction(2, 5) ** 2
    assert dict(square.items()) == brute_convolve(mu, mu)
    up, down = CirclePoint.generator(0, 50), CirclePoint.generator(0, -50)
    wide = AtomicMeasure({up: Fraction(1, 2), down: Fraction(1, 2)})
    assert dict(wide.convolve(wide).items()) == {
        up * up: Fraction(1, 4),
        CirclePoint(): Fraction(1, 2),
        down * down: Fraction(1, 4),
    }


def test_convolution_with_large_coprime_denominators():
    # The lcm of the denominators is about 10^12; 1/100000007 is prime alone.
    a, b = CirclePoint(Fraction(1, 1000003)), CirclePoint(Fraction(1, 999983), {0: 1})
    mu = AtomicMeasure({a: Fraction(1, 3), b: Fraction(2, 3)})
    assert dict(mu.convolve(mu).items()) == brute_convolve(mu, mu)
    cube = AtomicMeasure(brute_convolve(AtomicMeasure(brute_convolve(mu, mu)), mu))
    assert list(mu.convolve_power(3).items()) == list(cube.items())
    lone = AtomicMeasure({CirclePoint(Fraction(1, 100000007)): 1})
    assert dict(lone.convolve(mu).items()) == brute_convolve(lone, mu)
    assert lone.is_singular_to(mu.convolve(mu))


def test_generic_convolution_support_counts_multisets():
    # d fresh generators: supp(mu^{*k}) enumerates k-multisets exactly.
    mu = generic_measure(4)
    for k in (1, 2, 3):
        conv = mu.convolve_power(k)
        assert len(conv) == math.comb(4 + k - 1, k)


def test_singularity_and_absolute_continuity():
    alloc = GeneratorAllocator()
    mu = generic_measure(3, alloc)
    a = alloc.fresh_point()
    assert mu.is_singular_to(mu.translate(a))
    assert not mu.is_singular_to(mu)


def test_convolution_strata_of_generic_measure_are_disjoint():
    mu = generic_measure(3)
    powers = [mu.convolve_power(k) for k in (1, 2, 3, 4)]
    for i, j in itertools.combinations(range(4), 2):
        assert powers[i].is_singular_to(powers[j])


def test_scale_add_normalize():
    mu = generic_measure(2)
    assert mass(mu + mu) == 2 * mass(mu)


def test_relation_scan_finds_designed_product_relation():
    mu = designed_relation_measure()
    rels = relation_scan(mu, 4)
    assert len(rels) == 1
    rel = rels[0]
    assert sorted(rel.exponents) == [-1, -1, 1, 1]
    assert rel.exponents[0] == 1
    assert rel.constant == CirclePoint.identity()


def test_relation_scan_reports_rational_twist():
    x = CirclePoint.generator(0)
    half = CirclePoint(Fraction(1, 2))
    mu = AtomicMeasure({x: Fraction(1, 2), x * half: Fraction(1, 2)})
    rels = relation_scan(mu, 2)
    assert len(rels) == 1
    assert rels[0].constant == CirclePoint(Fraction(1, 2))
    assert rels[0].exponents == (1, -1)


def test_relation_scan_on_generic_measure_is_empty():
    assert relation_scan(generic_measure(4), 4) == []


def reference_relation_scan(mu, degree):
    """The scan in plain point arithmetic: every product of 1..degree distinct
    atoms with exponents +-1, leading +1, multiplied out point by point."""
    atoms = mu.support()
    found = []
    for L in range(1, min(degree, len(atoms)) + 1):
        for subset in itertools.combinations(atoms, L):
            for tail in itertools.product((1, -1), repeat=L - 1):
                prod = subset[0]
                for a, e in zip(subset[1:], tail):
                    prod = prod * (a if e == 1 else a.inverse())
                if prod.is_rational:
                    found.append(Relation(subset, (1,) + tail, prod))
    return found


def rational_measures(max_atoms=5):
    """Measures of rational rotations only, so every signed product is a hit."""
    rotations = st.fractions(min_value=0, max_value=1, max_denominator=12).map(CirclePoint)
    return st.dictionaries(rotations, st.just(1), min_size=1, max_size=max_atoms).map(AtomicMeasure)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_measures(max_atoms=6), rational_measures()), st.integers(min_value=2, max_value=4))
def test_packed_relation_scan_equals_point_arithmetic(mu, degree):
    assert relation_scan(mu, degree) == reference_relation_scan(mu, degree)


def test_relation_scan_keys_inverses_without_borrowing():
    # a * b^-1 = 1/3 - 2/3 = 2/3 mod 1.  A negated key for b would take the
    # rational digit below zero and borrow from g0's digit, missing the relation.
    a, b = CirclePoint(Fraction(1, 3), {0: 1}), CirclePoint(Fraction(2, 3), {0: 1})
    rels = relation_scan(AtomicMeasure({a: 1, b: 1}), 2)
    assert rels == [Relation((a, b), (1, -1), CirclePoint(Fraction(2, 3)))]


def test_relation_scan_decodes_constants_without_point_arithmetic(monkeypatch):
    mu = designed_relation_measure()
    x, third, half = CirclePoint.generator(0), CirclePoint(Fraction(1, 3)), CirclePoint(Fraction(1, 2))
    measures = (mu, mu.translate(third), AtomicMeasure({x: 1, x * half: 1}))
    expected = [relation_scan(m, 4) for m in measures]
    assert all(expected)

    def forbidden(*args):
        raise AssertionError("the scan multiplied points")

    monkeypatch.setattr(CirclePoint, "__mul__", forbidden)
    monkeypatch.setattr(CirclePoint, "inverse", forbidden)
    assert [relation_scan(m, 4) for m in measures] == expected


def test_json_round_trip_is_byte_identical():
    mu = designed_relation_measure().translate(CirclePoint(Fraction(1, 3)))
    text = measure_to_json(mu)
    again = measure_from_json(text)
    assert again == mu
    assert measure_to_json(again) == text


def test_json_rejects_malformed_documents():
    bad_docs = [
        "not json",
        '{"atoms": 3}',
        '{"atoms": [], "extra": 1}',
        '{"atoms": [{"weight": "1/2", "rational": "1/3"}]}',
        '{"atoms": [{"weight": "1/2", "rational": "1/3", "generic": {"x": 1}}]}',
        '{"atoms": [{"weight": "0", "rational": "1/3", "generic": {}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "0.5", "generic": {}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "0", "generic": {"1": 1, "\u0661": 1}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "0", "generic": {"\u00b2": 1}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "0", "generic": {"1": 1, "01": 1}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "1", "generic": {"1": 1}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "-1/3", "generic": {}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "3/2", "generic": {}}]}',
        '{"atoms": [{"weight": "1/2", "rational": "0", "generic": {"0": 0}}]}',
        "[" * 100_000,
    ]
    for doc in bad_docs:
        with pytest.raises(MeasureFormatError):
            measure_from_json(doc)


def test_json_document_shape():
    mu = AtomicMeasure({CirclePoint(Fraction(1, 4), {2: -1}): Fraction(2, 5)})
    obj = json.loads(measure_to_json(mu))
    assert obj == {
        "atoms": [{"weight": "2/5", "rational": "1/4", "generic": {"2": -1}}]
    }


@settings(max_examples=60)
@given(small_measures(), small_measures())
def test_convolution_commutes_and_multiplies_mass(mu, nu):
    left = mu.convolve(nu)
    assert left == nu.convolve(mu)
    assert mass(left) == mass(mu) * mass(nu)
    assert dict(left.items()) == brute_convolve(mu, nu)


@settings(max_examples=40)
@given(small_measures())
def test_json_round_trip_property(mu):
    assert measure_from_json(measure_to_json(mu)) == mu


def test_convolve_power_cancels_generators_across_coprime_denominators():
    # a * b carries no generator; the lcm of the denominators is about 10^12.
    a, b = CirclePoint(Fraction(1, 1000003), {0: -1}), CirclePoint(Fraction(1, 999983), {0: 1})
    mu = AtomicMeasure({a: Fraction(1, 3), b: Fraction(2, 3)})
    cube = AtomicMeasure(brute_convolve(AtomicMeasure(brute_convolve(mu, mu)), mu))
    assert list(mu.convolve_power(3).items()) == list(cube.items())
