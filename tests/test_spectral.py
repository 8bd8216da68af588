import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from circlespec import (
    AtomicMeasure,
    Caps,
    CirclePoint,
    EnumerationCapError,
    GeneratorAllocator,
    Perm,
    PermSubgroup,
    check_simplicity_levels,
    check_symmetric_power,
    check_tensor_power,
    check_translate_singularity,
    contiguous_block_group,
    cs_criterion,
    fibers,
    fock_multiplicity_set,
    generic_measure,
    girsanov_step,
    matrix_oracle,
    minimal_m_for_cs,
    multiplicity,
    nonsimple_counterexample,
    paired_relation_measure,
    simple_spectrum,
    wreath_block_group,
)
from circlespec import linalg, spectral
from circlespec.circle import _PackedCodec
from circlespec.spectral import _level_counts, _multiset_totals, _ordered_totals

from tests.helpers import designed_relation_measure, mass, point_strategy, small_measures


@pytest.fixture
def decodes(monkeypatch):
    """The keys decoded so far: `_PackedCodec.point` appends one entry per call."""
    calls = []
    original = _PackedCodec.point
    monkeypatch.setattr(_PackedCodec, "point", lambda self, r, pairs: calls.append(1) or original(self, r, pairs))
    return calls


def brute_fibers(mu, n):
    """Ordered tuples grouped by their CirclePoint product, eigenvalue-sorted."""
    atoms = mu.support()
    groups = {}
    for t in itertools.product(range(len(atoms)), repeat=n):
        groups.setdefault(math.prod((atoms[i] for i in t), start=CirclePoint()), []).append(t)
    return sorted(groups.items(), key=lambda kv: kv[0].sort_key())


def decode(fcs, fc):
    """The eigenvalue of `fc`, decoded from its key by the codec of the `fibers` call `fcs`."""
    return fcs.codec.point(*fcs.codec.sort_key(fc.key))


def decoded_fibers(mu, n):
    """(eigenvalue, fiber) for each fiber of `fibers(mu, n)`, sorted by eigenvalue:
    `fibers` itself returns its fibers in grouping order, undecoded."""
    fcs = fibers(mu, n)
    return sorted(((decode(fcs, fc), fc) for fc in fcs), key=lambda pair: pair[0].sort_key())


def ordered_tuples(fc):
    """The fiber's ordered tuples, the arrangements of its multisets, sorted."""
    return sorted(t for ms in fc.index_multisets for t in set(itertools.permutations(ms)))


def brute_orbit_counts(mu, n, G):
    """Per eigenvalue, the G-orbits on ordered tuples, named by their least member."""
    return {
        eig: len({min(tuple(t[i] for i in g) for g in G.elements) for t in ts})
        for eig, ts in brute_fibers(mu, n)
    }


def test_fibers_partition_all_tuples():
    mu = generic_measure(3)
    fcs = fibers(mu, 2)
    assert sum(fc.size for fc in fcs) == 9
    assert len(fcs) == 6  # 3 squares + 3 cross products
    assert [eig for eig, _ in decoded_fibers(mu, 2)] == [eig for eig, _ in brute_fibers(mu, 2)]
    generic = [fc for fc in fcs if fc.is_generic]
    squares = [fc for fc in fcs if not fc.is_generic]
    assert len(generic) == 3 and all(fc.size == 2 for fc in generic)
    assert len(squares) == 3 and all(fc.size == 1 for fc in squares)


def test_fiber_counts_follow_multiset_combinatorics():
    mu = generic_measure(4)
    for n in (1, 2, 3):
        fcs = fibers(mu, n)
        assert sum(fc.size for fc in fcs) == 4**n
        assert sum(len(fc.index_multisets) for fc in fcs) == math.comb(4 + n - 1, n)
        # fresh generators: one multiset per eigenvalue
        assert all(len(fc.index_multisets) == 1 for fc in fcs)


def test_designed_relation_doubles_a_fiber():
    mu = designed_relation_measure()
    fcs = fibers(mu, 2)
    doubled = [fc for fc in fcs if len(fc.index_multisets) == 2]
    assert len(doubled) == 1
    fc = doubled[0]
    assert fc.size == 4
    # the fiber eigenvalue is x*y = z*w
    x, y = CirclePoint.generator(0), CirclePoint.generator(1)
    assert decode(fcs, fc) == x * y


def test_fibers_cap():
    with pytest.raises(EnumerationCapError):
        fibers(generic_measure(10), 4, tuple_cap=100)


@settings(max_examples=40, deadline=None)
@given(small_measures(), st.integers(min_value=1, max_value=4))
def test_fibers_match_tuple_grouping(mu, n):
    decoded = decoded_fibers(mu, n)
    brute = brute_fibers(mu, n)
    assert [eig for eig, _ in decoded] == [eig for eig, _ in brute]
    for (_, fc), (_, ts) in zip(decoded, brute):
        assert fc.size == len(ts)
        assert ordered_tuples(fc) == ts
        assert list(fc.index_multisets) == sorted({tuple(sorted(t)) for t in ts})


def test_fibers_meet_mod_one_and_wide_exponents():
    # 3/4 * 3/4 meets 1 * 1/2 only modulo 1; g0^50 * g0^-50 cancels exactly.
    zero, half, three_quarters = (CirclePoint(Fraction(r, 4)) for r in (0, 2, 3))
    rational = AtomicMeasure({p: Fraction(1, 3) for p in (zero, half, three_quarters)})
    fc = next(fc for eig, fc in decoded_fibers(rational, 2) if eig == half)
    assert fc.index_multisets == ((0, 1), (2, 2)) and fc.size == 3
    up, down = CirclePoint.generator(0, 50), CirclePoint.generator(0, -50)
    wide = AtomicMeasure({up: 1, down: 1, CirclePoint(Fraction(1, 3), {0: 1, 1: -50}): 1})
    assert [eig for eig, _ in decoded_fibers(wide, 2)][:2] == [CirclePoint(), down * down]
    for mu in (rational, wide):
        for n in (2, 3):
            assert [(eig, ordered_tuples(fc)) for eig, fc in decoded_fibers(mu, n)] == brute_fibers(mu, n)


def test_fibers_with_large_coprime_denominators():
    # The lcm of the denominators is about 10^12 here; the key codec must not
    # do work proportional to it.
    a, b = CirclePoint(Fraction(1, 1000003)), CirclePoint(Fraction(1, 999983), {0: 1})
    lone = AtomicMeasure({CirclePoint(Fraction(1, 100000007)): 1})
    for mu in (AtomicMeasure({a: 1, b: 2, a * b: 1}), lone):
        for n in (1, 2, 3):
            assert [(eig, ordered_tuples(fc)) for eig, fc in decoded_fibers(mu, n)] == brute_fibers(mu, n)
            G = PermSubgroup.symmetric(n)
            assert multiplicity(mu, n, G).entries == brute_orbit_counts(mu, n, G)


def projector_ranks(mu, n, G):
    """Per eigenvalue, the sympy rank of the dense block sum_g U_g over the
    fiber's ordered tuples: |G| times the paper's invariant projector."""
    ranks = {}
    for eig, ts in brute_fibers(mu, n):
        index_of = {t: k for k, t in enumerate(ts)}
        block = [[0] * len(ts) for _ in ts]
        for j, t in enumerate(ts):
            for g in G.elements:
                block[index_of[tuple(t[i] for i in g)]][j] += 1
        ranks[eig] = DomainMatrix([[ZZ(x) for x in row] for row in block], (len(ts), len(ts)), ZZ).rank()
    return ranks


def redundant_generator_lists(G):
    """Generator lists of the same group as G: as given, with the identity,
    with a generator repeated, and with each generator's inverse."""
    gens = list(G.generators)
    inverses = [Perm(sorted(range(G.degree), key=g.images.__getitem__)) for g in gens]
    return [gens, [Perm(range(G.degree)), *gens], gens + gens[:1], gens + inverses]


@settings(max_examples=30, deadline=None)
@given(small_measures(), st.integers(min_value=1, max_value=4))
def test_orbit_route_matches_rank_route_and_tuple_orbits(mu, n):
    # The rank route runs on every generator list of each group, redundant
    # ones included; the paper's averaged projector is the oracle for both.
    groups = [PermSubgroup.trivial(n), PermSubgroup.cyclic(n), PermSubgroup.symmetric(n)]
    if n == 4:
        groups += [contiguous_block_group(2, 2), wreath_block_group(2, 2)]
    for G in groups:
        entries = list(multiplicity(mu, n, G).entries.items())
        assert entries == list(brute_orbit_counts(mu, n, G).items())
        assert entries == list(projector_ranks(mu, n, G).items())
        for gens in redundant_generator_lists(G):
            H = PermSubgroup(n, gens)
            assert H.elements == G.elements
            assert entries == list(matrix_oracle(mu, n, H).entries.items())


@pytest.mark.parametrize(
    "G", [PermSubgroup.symmetric(4), contiguous_block_group(2, 2)], ids=["symmetric", "block"]
)
def test_rank_route_passes_one_row_per_column_pair(monkeypatch, G):
    # Transpositions map tuples both ways; each unordered pair of columns
    # must reach linalg.rank once, as one int tuple (i, j) with i < j: the
    # union-find counts each pair that joins two components, so the row
    # e_i - e_j needs no signs and no entries.
    mu, n = designed_relation_measure(), 4
    calls = []
    rank = linalg.rank

    def recording_rank(rows):
        calls.append(rows)
        return rank(rows)

    monkeypatch.setattr(linalg, "rank", recording_rank)
    entries = list(matrix_oracle(mu, n, G).entries.items())
    assert len(calls) == len(fibers(mu, n))
    for rows in calls:
        for row in rows:
            i, j = row
            assert type(row) is tuple and type(i) is type(j) is int and i < j
        assert len(rows) == len(set(rows))
    assert any(calls)
    assert entries == list(projector_ranks(mu, n, G).items())


def group_kinds(n):
    """The trivial, cyclic and symmetric groups of degree n and, for even n,
    the group acting within n // 2 contiguous pairs."""
    groups = [PermSubgroup.trivial(n), PermSubgroup.cyclic(n), PermSubgroup.symmetric(n)]
    if n % 2 == 0:
        groups.append(contiguous_block_group(2, n // 2))
    return groups


def recorded_rank_calls(route, *args):
    """(report, rows of each linalg.rank call) of one route call."""
    calls = []
    rank = linalg.rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rank", lambda rows: calls.append(rows) or rank(rows))
        return route(*args), calls


@settings(max_examples=30, deadline=None)
@given(small_measures(), st.integers(min_value=1, max_value=4))
def test_rank_route_ranks_each_fiber_once_and_both_routes_count_every_tuple(mu, n):
    # The benchmark's span counter reads the rows of a rank call as a list
    # (len(a[0])) and pins one rank call per fiber.
    for G in group_kinds(n):
        rep, calls = recorded_rank_calls(matrix_oracle, mu, n, G)
        assert len(calls) == len(rep.entries) == len(fibers(mu, n))
        assert all(type(rows) is list for rows in calls)
        assert rep.total_tuples == multiplicity(mu, n, G).total_tuples == len(mu) ** n


@st.composite
def relation_rich_measures(draw, max_atoms=6):
    """Atoms on the two generators g0, g1 with small exponents, some rotated:
    many product relations, so a fiber holds multisets of several shapes."""
    point = st.builds(
        lambda r, e0, e1: CirclePoint(r, {0: e0, 1: e1}),
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3)]),
        st.integers(-2, 2),
        st.integers(-1, 1),
    )
    return AtomicMeasure(dict.fromkeys(draw(st.lists(point, min_size=3, max_size=max_atoms, unique=True)), 1))


def per_multiset_rows(fc, G):
    """(columns, rows) of the rank route built multiset by multiset, with
    no shape template: the arrangements of each multiset in sorted order,
    numbered on from those of the multisets before it, one pair (min, max)
    per pair of columns a generator maps onto each other."""
    tuples = [t for ms in fc.index_multisets for t in sorted(set(itertools.permutations(ms)))]
    index_of = {t: j for j, t in enumerate(tuples)}
    pairs = {
        (min(i, j), max(i, j))
        for j, t in enumerate(tuples)
        for s in G.generators
        if (i := index_of[tuple(t[k] for k in s.images)]) != j
    }
    return len(tuples), list(pairs)


@settings(max_examples=40, deadline=None)
@given(relation_rich_measures(), st.integers(min_value=2, max_value=4))
def test_shape_template_rows_are_the_per_multiset_rows(mu, n):
    for G in group_kinds(n):
        rep, calls = recorded_rank_calls(matrix_oracle, mu, n, G)
        fcs = fibers(mu, n)
        assert len(calls) == len(fcs) == len(rep.entries)
        for fc, rows in zip(fcs, calls):  # one rank call per fiber, in grouping order
            columns, reference = per_multiset_rows(fc, G)
            assert len(rows) == len(reference)
            assert set(rows) == set(reference)
            assert rep.entries[decode(fcs, fc)] == columns - linalg.rank(reference) == columns - linalg.rank(rows)


def partitions(n, largest=None):
    """The partitions of n, each with its parts largest first."""
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def multinomial(pattern):
    return math.factorial(sum(pattern)) // math.prod(map(math.factorial, pattern))


def necklaces(pattern):
    """Arrangements with this pattern up to rotation:
    (1/n) * sum over d | gcd(pattern) of phi(d) * multinomial(pattern / d)."""
    n, g = sum(pattern), math.gcd(*pattern)
    phi = {d: sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(1, g + 1) if g % d == 0}
    total = sum(f * multinomial([c // d for c in pattern]) for d, f in phi.items())
    assert total % n == 0
    return total // n


def enumerated_orbit_count(G, pattern):
    """Orbits of G.elements on the arrangements of a multiset with this
    pattern, enumerated: each unseen arrangement opens an orbit."""
    ms = tuple(v for v, c in enumerate(pattern) for _ in range(c))
    seen, orbits = set(), 0
    for t in sorted(set(itertools.permutations(ms))):
        if t not in seen:
            orbits += 1
            seen.update(tuple(t[i] for i in g) for g in G.elements)
    return orbits


@pytest.mark.parametrize("n", range(1, 9))
def test_burnside_orbit_counts_match_closed_forms(n):
    patterns = list(partitions(n))
    orbits = {
        name: spectral._orbit_counts(G.elements, patterns)
        for name, G in (
            ("symmetric", PermSubgroup.symmetric(n)),
            ("trivial", PermSubgroup.trivial(n)),
            ("cyclic", PermSubgroup.cyclic(n)),
        )
    }
    assert orbits["symmetric"] == dict.fromkeys(patterns, 1)
    assert orbits["trivial"] == {p: multinomial(p) for p in patterns}
    assert orbits["cyclic"] == {p: necklaces(p) for p in patterns}


@pytest.mark.parametrize(
    "G",
    [contiguous_block_group(2, 3), contiguous_block_group(3, 2), wreath_block_group(2, 3)],
    ids=["block-2x3", "block-3x2", "wreath-2x3"],
)
def test_burnside_orbit_counts_match_enumeration(G):
    patterns = list(partitions(G.degree))
    assert spectral._orbit_counts(G.elements, patterns) == {p: enumerated_orbit_count(G, p) for p in patterns}


def test_burnside_refuses_an_element_list_that_is_not_a_group():
    # {identity, 3-cycle} fixes 3 + 0 arrangements of pattern (2, 1): 3 is not a multiple of 2.
    n = 3
    G = PermSubgroup.symmetric(n)
    object.__setattr__(G, "elements", ((0, 1, 2), (1, 2, 0)))
    with pytest.raises(RuntimeError, match="not a multiple of"):
        spectral._orbit_counts(G.elements, [(2, 1)])
    with pytest.raises(RuntimeError, match="not a multiple of"):
        multiplicity(generic_measure(2), n, G)


def test_each_route_reads_its_own_description_of_the_group():
    # The rank route reads only G.generators and the orbit route only
    # G.elements; an element set that is not the closure of the generators
    # makes them disagree.
    mu, n = designed_relation_measure(), 3
    true = PermSubgroup.symmetric(n)
    broken = PermSubgroup.symmetric(n)
    object.__setattr__(broken, "elements", (tuple(range(n)),))
    expected = brute_orbit_counts(mu, n, true)
    assert matrix_oracle(mu, n, broken).entries == expected
    orbit = multiplicity(mu, n, broken).entries
    assert orbit != expected
    assert orbit == brute_orbit_counts(mu, n, PermSubgroup.trivial(n))


def test_rank_route_matches_orbit_route_on_large_relation_fibers():
    # Seven atoms on the one generator g0: at n = 4 the fibers are far from
    # generic, up to 116 tuples and 12 multisets over one eigenvalue.
    shifts = [(0, 1), (0, 2), (0, 3), (0, 4), (Fraction(1, 2), 1), (Fraction(1, 2), 3), (Fraction(1, 3), 2)]
    mu = AtomicMeasure({CirclePoint(r, {0: e}): 1 for r, e in shifts})
    n = 4
    groups = (PermSubgroup.trivial(n), PermSubgroup.cyclic(n), PermSubgroup.symmetric(n), contiguous_block_group(2, 2))
    reports = [(matrix_oracle(mu, n, G), multiplicity(mu, n, G)) for G in groups]
    for rank, orbit in reports:
        assert rank.entries == orbit.entries
    support = mu.support()
    tuples = Counter(math.prod(t, start=CirclePoint()) for t in itertools.product(support, repeat=n))
    multisets = Counter(
        math.prod(ms, start=CirclePoint()) for ms in itertools.combinations_with_replacement(support, n)
    )
    assert reports[0][0].entries == tuples
    assert reports[2][0].entries == multisets
    assert max(tuples.values()) == 116 and max(multisets.values()) == 12


def test_multiplicity_reference_values():
    mu = generic_measure(4)
    trivial = multiplicity(mu, 3, PermSubgroup.trivial(3))
    assert trivial.generic_value == 6
    assert trivial.homogeneous_on_generic
    full = multiplicity(mu, 3, PermSubgroup.symmetric(3))
    assert full.generic_value == 1
    cyclic = multiplicity(mu, 3, PermSubgroup.cyclic(3))
    assert cyclic.generic_value == 2
    assert trivial.total_tuples == full.total_tuples == 64


def test_multiplicity_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        multiplicity(generic_measure(2), 3, PermSubgroup.symmetric(2))


def test_matrix_oracle_agrees_on_generic_measure():
    mu = generic_measure(4)
    for G in (PermSubgroup.trivial(2), PermSubgroup.cyclic(2), PermSubgroup.symmetric(2)):
        orbit = multiplicity(mu, 2, G)
        rank = matrix_oracle(mu, 2, G)
        assert orbit.entries == rank.entries


def test_matrix_oracle_agrees_on_relation_measure():
    mu = designed_relation_measure()
    for G in (PermSubgroup.trivial(2), PermSubgroup.symmetric(2)):
        orbit = multiplicity(mu, 2, G)
        rank = matrix_oracle(mu, 2, G)
        assert orbit.entries == rank.entries
    # the doubled fiber: 4 tuples, 2 swap orbits
    full = multiplicity(mu, 2, PermSubgroup.symmetric(2))
    x, y = CirclePoint.generator(0), CirclePoint.generator(1)
    assert full.entries[x * y] == 2


def test_matrix_oracle_total_rank_counts_invariants():
    # rank of the symmetrizer over all fibers = number of 3-multisets
    mu = generic_measure(6)
    rep = matrix_oracle(mu, 3, PermSubgroup.symmetric(3))
    assert sum(rep.entries.values()) == math.comb(6 + 3 - 1, 3)


def test_matrix_oracle_cap():
    with pytest.raises(EnumerationCapError):
        matrix_oracle(generic_measure(10), 4, PermSubgroup.symmetric(4), Caps(matrix=100))


def test_simple_spectrum_and_levels():
    alloc = GeneratorAllocator()
    mu = generic_measure(3, alloc)
    assert simple_spectrum(mu, 2)
    assert simple_spectrum(mu, 3)
    rep = check_simplicity_levels(mu, 4)
    assert rep["levels"] == {"1": True, "2": True, "3": True, "4": True}
    assert rep["monotone"] and rep["violations"] == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generic_measure(0), "atom count must be an int >= 1, got 0"),
        (lambda: generic_measure(2).convolve_power(True), "convolution power must be an int >= 1, got True"),
        (lambda: check_simplicity_levels(generic_measure(2), "3"), "max level must be an int >= 1, got '3'"),
        (lambda: fock_multiplicity_set(2, 0, 8), "m_max must be an int >= 1, got 0"),
    ],
    ids=["generic_measure", "convolve_power", "check_simplicity_levels", "fock_multiplicity_set"],
)
def test_positive_int_checks_name_the_argument(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_two_point_translate_orbit_is_simple():
    # {x, x*a}: every level eigenvalue x^k a^j pins the multiset uniquely
    alloc = GeneratorAllocator()
    x = alloc.fresh_point()
    a = alloc.fresh_point()
    mu = AtomicMeasure({x: Fraction(1, 2), x * a: Fraction(1, 2)})
    rep = check_simplicity_levels(mu, 4)
    assert all(rep["levels"].values())


def test_translate_sum_breaks_simplicity_above_level_one():
    alloc = GeneratorAllocator()
    sigma = generic_measure(2, alloc)
    tau = sigma + sigma.translate(alloc.fresh_point())
    rep = check_simplicity_levels(tau, 3)
    assert rep["levels"] == {"1": True, "2": False, "3": False}
    assert rep["monotone"] and rep["violations"] == []


def test_check_tensor_power_small_cases():
    rep = check_tensor_power(1, 2, 4)
    assert rep["passed"] and rep["generic_value"] == 2 == rep["formula"]
    assert rep["orbit_route"]["ran"] and rep["matrix_route"]["ran"]
    rep = check_tensor_power(2, 2, 6)
    assert rep["passed"] and rep["generic_value"] == 6
    assert rep["group"]["order"] == 4


def test_check_tensor_power_warns_below_generic_threshold():
    rep = check_tensor_power(2, 2, 3)
    assert rep["warning"] is not None


def test_check_symmetric_power_small_cases():
    rep = check_symmetric_power(1, 2, 4)
    assert rep["passed"] and rep["generic_value"] == 1 == rep["formula"]
    rep = check_symmetric_power(2, 2, 6)
    assert rep["passed"] and rep["generic_value"] == 3
    assert rep["group"]["order"] == 8


def test_fock_multiplicity_set_small():
    rep = fock_multiplicity_set(2, 2, 6)
    assert rep["passed"]
    assert rep["set"] == [1, 3]
    assert rep["levels_pairwise_singular"]


@st.composite
def twisted_generic_measures(draw, max_atoms=5):
    """Atoms on distinct fresh generators (exponent +-1 or +-2), some twisted
    by a rational rotation: no product relation, whatever the twists."""
    d = draw(st.integers(min_value=1, max_value=max_atoms))
    twist = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
    twists = draw(st.lists(twist, min_size=d, max_size=d))
    exponents = draw(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=d, max_size=d))
    return AtomicMeasure(
        {CirclePoint(r, {i: e}): Fraction(1, d) for i, (r, e) in enumerate(zip(twists, exponents))}
    )


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(twisted_generic_measures(max_atoms=4), small_measures()),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(tuple),
    st.lists(point_strategy(), max_size=1).map(tuple),
)
@example(AtomicMeasure({CirclePoint(Fraction(1, 2), {0: 2}): 1}), (1,), (CirclePoint(Fraction(1, 2), {0: 2}),))
def test_grouping_engine_packs_every_level_under_one_codec(mu, levels, extra):
    """Each level decodes to the CirclePoint products of its multisets, in
    order, and keys of levels whose sizes add up to at most the codec power
    multiply as their points do, also by the extra point: the product key is
    the point's key and decodes to it.  The example needs the extra point's
    share of the power: without it, the generator digit has base 2^3, and the
    exponent 2 + 2 of g0^2 * g0^2 leaves its balanced range [-4, 4)."""
    atoms, codec, groups = spectral._group_by_product(mu, levels, extra)

    def multiplies(x, y, point):
        key = codec.product((x, y))
        return key == codec.key(point) and codec.point(*codec.sort_key(key)) == point

    assert atoms == mu.support() and len(groups) == len(levels)
    decoded = []
    for n, by_key in zip(levels, groups):
        brute = {}
        for ms in itertools.combinations_with_replacement(range(len(atoms)), n):
            brute.setdefault(math.prod((atoms[i] for i in ms), start=CirclePoint()), []).append(ms)
        assert codec.ordered(by_key.items()) == sorted(brute.items(), key=lambda kv: kv[0].sort_key())
        decoded.append([(key, codec.point(*codec.sort_key(key))) for key in by_key])
    power = max(levels) + len(extra)
    for (n, xs), (n2, ys) in itertools.product(zip(levels, decoded), repeat=2):
        if n + n2 <= power:
            assert all(multiplies(x, y, p * q) for x, p in xs for y, q in ys)
    for a in extra:
        assert all(multiplies(x, codec.key(a), p * a) for xs in decoded for x, p in xs)


def test_grouping_makes_no_codec_call_per_multiset(monkeypatch):
    """The key sums of every level are reduced in C: the codec packs each atom
    once, and no multiset goes through `product`."""
    calls = Counter()
    for name in ("key", "product"):
        original = getattr(_PackedCodec, name)
        monkeypatch.setattr(
            _PackedCodec, name, lambda self, arg, name=name, f=original: calls.update([name]) or f(self, arg)
        )
    spectral._group_by_product(generic_measure(12), (1, 2, 3))
    assert calls == {"key": 12}


def brute_level_counts(mu, k, m, select):
    """Per eigenvalue, eigenvalue-sorted: the selections of m level atoms
    (k-fold CirclePoint products) with that product, and the set of their
    total base multisets."""
    atoms = mu.support()
    levels = list(itertools.combinations_with_replacement(range(len(atoms)), k))
    points = [math.prod((atoms[i] for i in level), start=CirclePoint()) for level in levels]
    counts, totals = Counter(), {}
    for sel in select(range(len(levels)), m):
        eig = math.prod((points[c] for c in sel), start=CirclePoint())
        counts[eig] += 1
        totals.setdefault(eig, set()).add(tuple(sorted(i for c in sel for i in levels[c])))
    return sorted(counts.items(), key=lambda kv: kv[0].sort_key()), totals


def decoded_level_counts(mu, k, m, count):
    """`_level_counts` with each part decoded through its codec, in eigenvalue order."""
    codec, (counts,) = _level_counts(mu, k, (m,), count)
    return {name: dict(codec.ordered(part.items())) for name, part in counts.items()}


def _tensor_level_counts(mu, k, m):
    return decoded_level_counts(mu, k, m, _ordered_totals)


def _symmetric_level_counts(mu, k, m):
    return decoded_level_counts(mu, k, m, _multiset_totals)


# The level counts that check_tensor_power and check_symmetric_power run, each
# with the enumeration of selections that the references count.
LEVEL_ROUTES = [
    (_tensor_level_counts, lambda xs, m: itertools.product(xs, repeat=m)),
    (_symmetric_level_counts, itertools.combinations_with_replacement),
]
# The counter of raw level totals that `_level_counts` takes in place of each enumeration.
COUNTER_OF = dict(zip((select for _, select in LEVEL_ROUTES), (_ordered_totals, _multiset_totals)))


@pytest.mark.parametrize("select", [select for _, select in LEVEL_ROUTES])
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
@example(d=1, k=1, first=8, last=8)
@example(d=2, k=2, first=1, last=4)
@example(d=2, k=1, first=1, last=8)
@example(d=3, k=1, first=5, last=8)
def test_level_counters_total_as_the_enumeration(select, d, k, first, last):
    """Each counter's totals are the enumerated selections' sums, counted: for
    m = 1..8, so that a level atom repeats up to 8 times, for several consecutive
    m in one call, and below km atoms."""
    ms = range(min(first, last), max(first, last) + 1)
    atoms = generic_measure(d).support()
    assume(math.comb(d + k - 1, k) ** ms[-1] <= 20000)
    keys = map(_PackedCodec(atoms, k * ms[-1]).key, atoms)
    levels = [sum(c) for c in itertools.combinations_with_replacement(keys, k)]
    assert COUNTER_OF[select](levels, ms) == [Counter(map(sum, select(levels, m))) for m in ms]


@pytest.mark.parametrize("route, select", LEVEL_ROUTES)
@settings(max_examples=40, deadline=None)
@given(
    twisted_generic_measures(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_level_counts_match_enumerated_products(route, select, mu, k, m):
    assume(math.comb(len(mu) + k - 1, k) ** m <= 5000)
    expected, totals = brute_level_counts(mu, k, m, select)
    counts = route(mu, k, m)
    assert list(counts["entries"].items()) == expected
    assert all(len(ts) == 1 for ts in totals.values())
    generic = [(eig, c) for eig, c in expected if len(set(min(totals[eig]))) == k * m]
    assert list(counts["generic"].items()) == generic
    assert list(counts["degenerate"].items()) == [e for e in expected if e not in generic]


@pytest.mark.parametrize("route, select", LEVEL_ROUTES)
@settings(max_examples=40, deadline=None)
@given(small_measures(), st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_level_counts_guard_fires_exactly_on_shared_products(route, select, mu, k, m):
    expected, totals = brute_level_counts(mu, k, m, select)
    if any(len(ts) > 1 for ts in totals.values()):
        with pytest.raises(RuntimeError, match="not generic"):
            route(mu, k, m)
    else:
        assert list(route(mu, k, m)["entries"].items()) == expected


def reference_level_counts(sigma, k, m, select):
    """An independent level count: each total base multiset is a count vector
    with one base-(km+1) digit per atom, unpacked into a digit list per total.
    Its guard names the shared product that sorts first, with the atoms of its
    totals in lexicographic index order."""
    atoms = sigma.support()
    radix = k * m + 1
    powers = [radix**i for i in range(len(atoms))]
    codec = _PackedCodec(atoms, k * m)
    base = [codec.key(p) for p in atoms]
    vectors = [sum(c) for c in itertools.combinations_with_replacement(powers, k)]
    by_key = {}  # product key -> [(count, digits of the total)]
    for total, count in Counter(map(sum, select(vectors, m))).items():
        digits = [total // p % radix for p in powers]
        by_key.setdefault(codec.product(map(operator.mul, digits, base)), []).append((count, digits))
    shared = sorted(codec.sort_key(key) + (key,) for key, totals in by_key.items() if len(totals) > 1)
    if shared:
        r, pairs, key = shared[0]
        totals = sorted(tuple(i for i, c in enumerate(ds) for _ in range(c)) for _, ds in by_key[key])
        names = [[str(atoms[i]) for i in ms] for ms in totals]
        raise RuntimeError(
            f"base measure is not generic: {len(totals)} multisets {names} share product {codec.point(r, pairs)}"
        )
    out = {"entries": {}, "generic": {}, "degenerate": {}}
    for eig, [(count, digits)] in codec.ordered(by_key.items()):
        out["entries"][eig] = count
        out["generic" if max(digits) <= 1 else "degenerate"][eig] = count
    return out


def _level_counts_or_error(level_counts, *args):
    try:
        return {name: list(part.items()) for name, part in level_counts(*args).items()}
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("select", [select for _, select in LEVEL_ROUTES])
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(twisted_generic_measures(), small_measures()),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_level_counts_match_the_count_vector_reference(select, mu, k, m):
    """The same entries in the same order, the same generic/degenerate split,
    or the same non-generic error text, witness included."""
    assume(math.comb(len(mu) + k - 1, k) ** m <= 5000)
    expected = _level_counts_or_error(reference_level_counts, mu, k, m, select)
    assert _level_counts_or_error(decoded_level_counts, mu, k, m, COUNTER_OF[select]) == expected


@pytest.mark.parametrize("route, select", LEVEL_ROUTES)
def test_level_count_guard_names_the_eigenvalue_first_witness(route, select):
    # support order 1, g1, 1/2, 1/2 g1: 1 * (1/2 g1) = g1 * (1/2) repeats first in
    # lexicographic order, but 1*1 = (1/2)*(1/2) is the product that sorts first
    half, g1 = CirclePoint(Fraction(1, 2)), CirclePoint.generator(1)
    mu = AtomicMeasure({p: 1 for p in (CirclePoint(), g1, half, half * g1)})
    message = r"^base measure is not generic: 2 multisets \[\['1', '1'\], \['1/2', '1/2'\]\] share product 1$"
    with pytest.raises(RuntimeError, match=message):
        reference_level_counts(mu, 1, 2, select)
    with pytest.raises(RuntimeError, match=message):
        route(mu, 1, 2)


@pytest.mark.parametrize("route", [route for route, _ in LEVEL_ROUTES])
def test_level_counts_reject_non_generic_base(route):
    g0, g1 = CirclePoint.generator(0), CirclePoint.generator(1)
    # support order g0, g0^2 g1^-1, g1: the level atoms g0*g0 and g1*(g0^2 g1^-1) collide
    mu = AtomicMeasure({g0: 1, g1: 1, g0 * g0 * g1.inverse(): 1})
    # level 2: g0^2 is reached by [g0^1, g0^1] and [g0^2 * g1^-1, g1^1]; level 4: g0^2 * g1^2 sorts first
    for m, eig in ((1, r"g0\^2"), (2, r"g0\^2 \* g1\^2")):
        with pytest.raises(RuntimeError, match=rf"^base measure is not generic: 2 multisets .* share product {eig}$"):
            route(mu, 2, m)
    with pytest.raises(RuntimeError, match=r"\[\['g0\^1', 'g0\^1'\], \['g0\^2 \* g1\^-1', 'g1\^1'\]\]"):
        route(mu, 2, 1)
    # x*y = z*w
    with pytest.raises(RuntimeError, match="not generic"):
        route(designed_relation_measure(), 1, 2)


@pytest.mark.parametrize("select", [select for _, select in LEVEL_ROUTES])
def test_level_counts_of_several_levels_are_each_level_alone(select):
    """One call over levels 1..3 counts each level as a call for it alone,
    and its guard finds a repeat of a lower level at the top one."""
    sigma, count = generic_measure(4), COUNTER_OF[select]
    codec, per_m = _level_counts(sigma, 2, (1, 2, 3), count)
    for m, counts in zip((1, 2, 3), per_m):
        decoded = {name: dict(codec.ordered(part.items())) for name, part in counts.items()}
        assert decoded == decoded_level_counts(sigma, 2, m, count)
    g0, g1 = CirclePoint.generator(0), CirclePoint.generator(1)
    mu = AtomicMeasure({g0: 1, g1: 1, g0 * g0 * g1.inverse(): 1})  # g0*g0 = g1*(g0^2 g1^-1) at level 1
    top = r"\[\['g0\^1', 'g0\^1', 'g1\^1', 'g1\^1'\], \['g0\^2 \* g1\^-1', 'g1\^1', 'g1\^1', 'g1\^1'\]\]"
    with pytest.raises(RuntimeError, match=rf"^base measure is not generic: 2 multisets {top} share product g0\^2 \* g1\^2"):
        _level_counts(mu, 2, (1, 2), count)


@pytest.mark.parametrize("select", [select for _, select in LEVEL_ROUTES])
def test_level_counts_decode_only_the_key_their_guard_names(select, decodes):
    count = COUNTER_OF[select]
    codec, (counts,) = _level_counts(generic_measure(5), 2, (2,), count)
    assert decodes == [] and all(isinstance(key, int) for key in counts["entries"])
    with pytest.raises(RuntimeError, match="not generic"):
        _level_counts(designed_relation_measure(), 1, (2,), count)
    assert len(decodes) == 1


def test_level_counts_refuse_totals_that_are_not_the_grouping():
    """A counter that misses a total or adds one is an engine error, named by level."""
    for change in (lambda totals: totals.pop(next(iter(totals))), lambda totals: totals.update({-1: 1})):

        def count(levels, ms, change=change):
            per_m = _multiset_totals(levels, ms)
            change(per_m[-1])
            return per_m

        with pytest.raises(RuntimeError, match=r"^the level-2 totals are not the products of the 4-multisets$"):
            _level_counts(generic_measure(4), 2, (1, 2), count)


def test_fock_levels_and_translate_singularity_decode_nothing(decodes):
    rep = fock_multiplicity_set(2, 4, 8)
    assert rep["passed"] and rep["set"] == [1, 3, 15, 105]
    alloc = GeneratorAllocator()
    sigma = generic_measure(5, alloc)
    for a in (alloc.fresh_point(), CirclePoint.identity(), CirclePoint(Fraction(1, 3), {0: 5})):
        check_translate_singularity(sigma, 2, 2, a)
    assert decodes == []


def reference_translate_singularity(sigma, n, m, a):
    """The singularity of the two measures themselves: convolution powers, one translated."""
    return sigma.convolve_power(n).is_singular_to(sigma.convolve_power(m).translate(a))


@settings(max_examples=80, deadline=None)
@given(
    small_measures(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.just(CirclePoint.identity()), point_strategy()),
)
def test_translate_singularity_matches_the_measures(mu, n, m, a):
    assert check_translate_singularity(mu, n, m, a)["singular"] == reference_translate_singularity(mu, n, m, a)


def test_translate_singularity_on_relations():
    # x*y = z*w: (x*y)*a = (z*w)*a, and z*w is also a level-2 product
    mu = designed_relation_measure()
    x, z = CirclePoint.generator(0), CirclePoint.generator(2)
    for a in (CirclePoint.identity(), x, z.inverse(), x * z.inverse(), CirclePoint(Fraction(1, 2))):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            assert check_translate_singularity(mu, n, m, a)["singular"] == reference_translate_singularity(mu, n, m, a)
    assert not check_translate_singularity(mu, 2, 1, x)["singular"]


def test_closed_forms_are_the_factorial_forms():
    f = math.factorial
    for k, m in itertools.product(range(1, 9), repeat=2):
        assert spectral._tensor_formula(k, m) == f(m * k) // f(k) ** m
        assert spectral._symmetric_formula(k, m) == f(m * k) // (f(k) ** m * f(m))


def test_fock_set_at_a_huge_conv_power_computes_no_factorial(monkeypatch):
    def forbidden(n):
        raise AssertionError("math.factorial was called")

    monkeypatch.setattr(math, "factorial", forbidden)
    assert fock_multiplicity_set(300000, 1, 1) == {
        "conv_power": 300000,
        "max_level": 1,
        "atoms": 1,
        "per_level": {"1": None},
        "formula_per_level": {"1": 1},
        "set": [],
        "levels_pairwise_singular": True,
        "warning": "no generic fiber above level 0: d=1 < 300000",
        "passed": False,
    }


def test_cs_criterion_examples():
    assert cs_criterion(1, 2, 2)["holds"]
    rep = cs_criterion(2, 2, 2)
    assert rep["group_order"] == 4 and rep["tensor_multiplicity"] == 6
    assert not rep["holds"]


def test_minimal_m_for_cs_reference_values():
    for k, want in ((1, 2), (2, 2), (3, 5)):
        assert minimal_m_for_cs(k)["m"] == want
    assert minimal_m_for_cs(2)["sequence"][1] == "4/3"
    assert minimal_m_for_cs(1)["sequence"] == ["1", "2"]


# The search ends at the least m or at the first term past the digit limit.
@pytest.mark.parametrize("k", range(1, 13))
def test_minimal_m_for_cs_matches_a_plain_integer_search_or_refuses(k):
    try:
        m = minimal_m_for_cs(k)["m"]
    except EnumerationCapError:
        m = None
    plain = next(
        (j for j in range(1, 201) if math.factorial(j) ** (k + 1) * math.factorial(k) ** j > math.factorial(j * k)),
        None,
    )
    assert m == plain


def test_translate_singularity_matrix():
    alloc = GeneratorAllocator()
    sigma = generic_measure(4, alloc)
    fresh = alloc.fresh_point()
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            fresh_rep = check_translate_singularity(sigma, n, m, fresh)
            ident_rep = check_translate_singularity(sigma, n, m, CirclePoint.identity())
            assert fresh_rep["singular"]
            assert ident_rep["singular"] == (n != m)


def test_nonsimple_counterexample_two_atoms():
    alloc = GeneratorAllocator()
    sigma = generic_measure(2, alloc)
    rep = nonsimple_counterexample(sigma, alloc.fresh_point())
    assert rep["found"]
    assert rep["translate_not_singular"]
    assert not rep["simple_level_2"]
    assert rep["witness"]["multiplicity"] == 2
    assert len(rep["overlap"]) == 2


def test_nonsimple_counterexample_needs_two_atoms():
    alloc = GeneratorAllocator()
    sigma = generic_measure(1, alloc)
    rep = nonsimple_counterexample(sigma, alloc.fresh_point())
    assert not rep["found"]
    assert "at least 2" in rep["note"]


def test_nonsimple_counterexample_one_atom_prints_the_witness_of_an_involution_shift():
    """One base atom x = g0 and a = 1/2, so a^2 = 1: {x, x} and {x*a, x*a} share x^2."""
    rep = nonsimple_counterexample(generic_measure(1), CirclePoint(Fraction(1, 2)))
    assert rep["simple_level_2"] is False and rep["found"] is True and rep["note"] is None
    assert rep["witness"] == {
        "eigenvalue": "g0^2",
        "multiplicity": 2,
        "multisets": [["g0^1", "g0^1"], ["1/2 * g0^1", "1/2 * g0^1"]],
    }


def test_nonsimple_counterexample_rejects_identity_shift():
    with pytest.raises(ValueError):
        nonsimple_counterexample(generic_measure(2), CirclePoint.identity())


def test_girsanov_trivial_on_generic_measure():
    rep = girsanov_step(generic_measure(3), 2)
    assert rep["q"] == 1 and rep["trivial"]
    assert rep["satisfied"]


def test_girsanov_squares_designed_multiplicity():
    rep = girsanov_step(paired_relation_measure(), 2)
    assert rep["q"] == 2
    assert rep["required"] == 4
    assert rep["chosen_count"] >= 4
    assert len(rep["witness_multisets"]) == rep["chosen_count"]
    assert rep["satisfied"]
    assert rep["level_max"] == {"1": 1, "2": 2, "4": 4}


def reference_girsanov_step(sigma, n):
    """girsanov_step as it was before it counted per packed key: every level
    decoded into fibers, eigenvalues ranked by `max` in eigenvalue order."""
    level_1, level_n, level_2n = (
        {eig: fc.index_multisets for eig, fc in decoded_fibers(sigma, j)} for j in (1, n, 2 * n)
    )

    def top(counts, skip=None):
        return max((eig for eig in counts if eig != skip), key=lambda eig: len(counts[eig]), default=None)

    s = top(level_n)
    s2 = top(level_n, skip=s) or s
    q = len(level_n[s])
    atoms = sigma.support()

    def names(multisets):
        return [[str(atoms[i]) for i in ms] for ms in multisets]

    candidate = s * s2
    required = q * q
    chosen = candidate if len(level_2n.get(candidate, ())) >= required else top(level_2n)
    chosen_count = len(level_2n[chosen])
    return {
        "level": n,
        "q": q,
        "trivial": q == 1,
        "top_eigenvalue": str(s),
        "top_multisets": names(level_n[s]),
        "second_eigenvalue": str(s2),
        "second_multisets": names(level_n[s2]),
        "candidate_eigenvalue": str(candidate),
        "candidate_count": len(level_2n.get(candidate, ())),
        "chosen_eigenvalue": str(chosen),
        "chosen_count": chosen_count,
        "required": required,
        "witness_multisets": names(level_2n[chosen]),
        "level_max": {
            "1": max(len(ms) for ms in level_1.values()),
            str(n): q,
            str(2 * n): max(len(ms) for ms in level_2n.values()),
        },
        "satisfied": chosen_count >= required,
    }


def assert_same_girsanov_report(sigma, n):
    rep, ref = girsanov_step(sigma, n), reference_girsanov_step(sigma, n)
    assert rep == ref
    assert json.dumps(rep) == json.dumps(ref)  # key order too


@settings(max_examples=60, deadline=None)
@given(small_measures(), st.sampled_from([1, 2]))
def test_girsanov_matches_the_decoding_reference(mu, n):
    assert_same_girsanov_report(mu, n)


@pytest.mark.parametrize(
    "sigma",
    [
        AtomicMeasure({CirclePoint.identity(): 1}),  # one eigenvalue per level, packed key 0
        AtomicMeasure({CirclePoint.generator(0): 1}),
        AtomicMeasure({CirclePoint.identity(): 1}) + AtomicMeasure({CirclePoint.generator(0): 1}),
        AtomicMeasure({CirclePoint(0): 1, CirclePoint(Fraction(1, 2)): 1}),
        designed_relation_measure(),
        paired_relation_measure(),
        generic_measure(4),
    ],
    ids=["identity", "one-generator", "identity-and-generator", "halves", "designed", "paired", "generic"],
)
@pytest.mark.parametrize("n", [1, 2])
def test_girsanov_matches_the_decoding_reference_on_edge_measures(sigma, n):
    assert_same_girsanov_report(sigma, n)


def test_girsanov_decodes_only_what_it_prints(decodes):
    rep = girsanov_step(generic_measure(6), 2)
    assert rep["satisfied"] and rep["level_max"] == {"1": 1, "2": 1, "4": 1}
    assert len(decodes) <= 5


def test_paired_relation_measure_shape():
    mu = paired_relation_measure()
    assert len(mu) == 8
    assert mass(mu) == 1


# -- counting without decoding -------------------------------------------------


def reference_simplicity_levels(mu, max_level):
    """check_simplicity_levels read off fully decoded fibers: a level is
    simple when no fiber holds two multisets, and its witness is the first
    such fiber in eigenvalue order."""
    levels, witnesses = {}, {}
    for j in range(1, max_level + 1):
        bad = [(eig, fc) for eig, fc in decoded_fibers(mu, j) if len(fc.index_multisets) > 1]
        levels[j] = not bad
        if bad:
            eig, fc = bad[0]
            witnesses[j] = {
                "eigenvalue": str(eig),
                "multiplicity": len(fc.index_multisets),
                "multisets": [[str(mu.support()[i]) for i in ms] for ms in fc.index_multisets],
            }
    violations = [
        {"lower": j, "higher": k, "witness": witnesses[j]}
        for j in range(1, max_level + 1)
        for k in range(j + 1, max_level + 1)
        if levels[k] and not levels[j]
    ]
    return {
        "max_level": max_level,
        "levels": {str(j): levels[j] for j in range(1, max_level + 1)},
        "monotone": not violations,
        "violations": violations,
    }


def rotation_twisted(mu):
    """mu plus its translate by a rational rotation and a fresh generator."""
    shift = CirclePoint(Fraction(1, 3), {9: 1})
    return mu + mu.translate(shift)


def abc_measure():
    """a = g0, b = g1, c = g0^2 g1^-1: a*a = b*c, though no +-1 relation exists."""
    a, b = CirclePoint.generator(0), CirclePoint.generator(1)
    return AtomicMeasure({a: Fraction(1, 3), b: Fraction(1, 3), a * a * b.inverse(): Fraction(1, 3)})


def assert_counts_match_decoded_fibers(mu, max_level):
    assert check_simplicity_levels(mu, max_level) == reference_simplicity_levels(mu, max_level)
    for n in range(1, max_level + 1):
        assert simple_spectrum(mu, n) == all(len(fc.index_multisets) == 1 for fc in fibers(mu, n))


@settings(max_examples=60, deadline=None)
@given(small_measures(), st.booleans())
def test_simplicity_counts_match_decoded_fibers(mu, twist):
    mu = rotation_twisted(mu) if twist else mu
    assert_counts_match_decoded_fibers(mu, 4 if len(mu) <= 4 else 3)


@pytest.mark.parametrize(
    "mu",
    [abc_measure(), rotation_twisted(abc_measure()), designed_relation_measure(), paired_relation_measure()],
    ids=["abc", "abc-twisted", "designed", "paired"],
)
def test_simplicity_counts_match_decoded_fibers_on_relations(mu):
    assert_counts_match_decoded_fibers(mu, 4 if len(mu) <= 6 else 3)


def test_abc_measure_fails_at_level_two():
    rep = check_simplicity_levels(abc_measure(), 3)
    assert rep["levels"] == {"1": True, "2": False, "3": False}
    assert rep["monotone"]


def test_simplicity_decodes_only_its_witnesses(decodes):
    rep = check_simplicity_levels(generic_measure(5), 4)
    assert all(rep["levels"].values()) and decodes == []
    rep = check_simplicity_levels(rotation_twisted(abc_measure()), 4)
    assert len(decodes) == list(rep["levels"].values()).count(False) == 3


@pytest.fixture
def sort_keys(monkeypatch):
    """The keys whose sort key was taken so far, one entry per `_PackedCodec.sort_key` call."""
    calls = []
    original = _PackedCodec.sort_key
    monkeypatch.setattr(_PackedCodec, "sort_key", lambda self, key: calls.append(key) or original(self, key))
    return calls


def test_power_checks_decode_no_key(decodes, sort_keys):
    """The routes are compared with the level counts on packed keys (8^6 tuples
    exceed the default matrix cap, so only the symmetric check runs the rank route)."""
    tensor, symmetric = check_tensor_power(2, 3, 8), check_symmetric_power(2, 2, 6)
    assert tensor["passed"] and tensor["orbit_route"]["ran"]
    assert symmetric["passed"] and symmetric["orbit_route"]["ran"] and symmetric["matrix_route"]["ran"]
    assert decodes == [] and sort_keys == []


def test_report_decodes_each_key_once_on_first_read(decodes):
    mu, n = designed_relation_measure(), 3
    reference = decoded_fibers(mu, n)
    decodes.clear()
    rep = multiplicity(mu, n, PermSubgroup.cyclic(n))
    assert decodes == []
    assert list(rep.entries) == [eig for eig, _ in reference]
    assert rep.degenerate == [(eig, rep.entries[eig]) for eig, fc in reference if not fc.is_generic]
    rep.to_table(), rep.to_json_obj()
    assert len(decodes) == len(rep.counts) == len(reference)


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_level_count_eigenvalues_are_the_convolution_support(d, k, m):
    """fock_multiplicity_set compares these eigenvalue sets as the supports of sigma^{*km}."""
    sigma = generic_measure(d)
    assert list(_symmetric_level_counts(sigma, k, m)["entries"]) == list(sigma.convolve_power(k * m).support())


def test_fock_level_check_fails_when_the_base_holds_the_identity(monkeypatch):
    """With the identity as an atom, sigma^{*2} already holds the atoms of
    sigma^{*1} times the identity, so the levels intersect."""
    monkeypatch.setattr(
        spectral, "generic_measure", lambda d: generic_measure(d - 1) + AtomicMeasure({CirclePoint.identity(): 1})
    )
    rep = fock_multiplicity_set(2, 2, 6)
    assert not rep["levels_pairwise_singular"] and not rep["passed"]


def test_fock_multiplicity_set_builds_no_convolution_power(monkeypatch):
    def forbidden(self, k):
        raise AssertionError("fock_multiplicity_set built a convolution power")

    monkeypatch.setattr(AtomicMeasure, "convolve_power", forbidden)
    rep = fock_multiplicity_set(2, 3, 6)
    assert rep["passed"] and rep["set"] == [1, 3, 15] and rep["levels_pairwise_singular"]


def test_multiplicity_takes_each_multiset_pattern_at_most_twice(monkeypatch):
    # Exactly once, to pick the patterns to count and sum: the route counts
    # its tuples from the same patterns, so FiberClass.size is never read.
    # FiberClass.size is not cached: each read takes each multiset's pattern once.
    mu, n = designed_relation_measure(), 4
    multisets = [ms for fc in fibers(mu, n) for ms in fc.index_multisets]
    calls = Counter()
    pattern = spectral._pattern

    def counting_pattern(ms):
        calls[ms] += 1
        return pattern(ms)

    monkeypatch.setattr(spectral, "_pattern", counting_pattern)
    rep = multiplicity(mu, n, PermSubgroup.symmetric(n))
    assert calls == dict.fromkeys(multisets, 1)
    assert rep.total_tuples == len(mu) ** n
    fc = fibers(mu, n)[0]
    calls.clear()
    assert fc.size == sum(spectral._arrangements(pattern(ms)) for ms in fc.index_multisets)
    assert calls == dict.fromkeys(fc.index_multisets, 1)
