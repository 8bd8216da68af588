"""Multiplicity bookkeeping for tensor and symmetric powers of atomic models.

The n-th tensor power of the unitary attached to an atomic measure sigma has,
at an eigenvalue z, multiplicity equal to the number of ordered n-tuples of
atoms multiplying to z.  Restricting to the subspace invariant under a
subgroup G <= S(n) of coordinate permutations replaces tuple counts by
G-orbit counts; G = S(n) gives the symmetric power, where the orbit count is
the number of distinct atom multisets with product z.

Everything here runs on that combinatorial picture with exact arithmetic.
A "fiber" groups the atom multisets over one eigenvalue, found by summing
packed integer keys; its ordered tuples are their arrangements.  A fiber is
generic when it holds one multiset of n distinct atoms, the only kind a
fully generic measure produces.  Each count is reached by at least two
independent routes: orbits of `G.elements` counted per multiplicity pattern
by Burnside's lemma over the elements' cycle types, multiset-partition
counting, and the exact rank of the differences U_s - I over the ordered
tuples for s in `G.generators`, one row per pair of tuples a generator
maps onto each other.  The checks run every route their caps allow and
insist on exact agreement.  Multiset-partition counting counts selections of
level atoms (k-multisets of atoms) per raw key total without building one:
one fold step, t -> t + l for a level atom l, taken in two loop orders: sizes
outside and atoms inside counts ordered selections (`_ordered_totals`), atoms
outside and sizes rising inside counts multisets (`_multiset_totals`).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction

from circlespec import linalg
from circlespec.circle import CirclePoint, GeneratorAllocator, _PackedCodec
from circlespec.errors import Caps, EnumerationCapError, Immutable, admit, require_positive
from circlespec.measure import AtomicMeasure, generic_measure, relation_scan
from circlespec.permgroup import (
    PermSubgroup,
    contiguous_block_group,
    wreath_block_group,
)


def _pattern(ms: tuple[int, ...]) -> tuple[int, ...]:
    """Value counts of a sorted multiset, largest first: a partition of len(ms)."""
    return tuple(sorted(map(ms.count, set(ms)), reverse=True))


def _arrangements(pattern: tuple[int, ...]) -> int:
    """The number of distinct orderings of a multiset with this pattern."""
    return math.factorial(sum(pattern)) // math.prod(map(math.factorial, pattern))


class FiberClass(namedtuple("FiberClass", ("key", "index_multisets"))):
    """The atom multisets over one eigenvalue of the coordinate product.

    `key` is the eigenvalue's packed key under the codec of the `fibers` call
    that built the class.  `index_multisets` holds the distinct multisets whose
    product is the eigenvalue, as sorted tuples of indices into `sigma.support()`
    (canonical order), lexicographically sorted.  The fiber's ordered tuples are
    their arrangements; `size` counts them by multinomial coefficients.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return sum(_arrangements(_pattern(ms)) for ms in self.index_multisets)

    @property
    def is_generic(self) -> bool:
        ms = self.index_multisets
        return len(ms) == 1 and len(set(ms[0])) == len(ms[0])


def _group_by_product(
    sigma: AtomicMeasure, levels: Sequence[int], extra: tuple[CirclePoint, ...] = (), tuple_cap: int = Caps.tuples
) -> tuple[tuple[CirclePoint, ...], _PackedCodec, list[dict[int, list[tuple[int, ...]]]]]:
    """(atoms, codec, groups): groups[i] maps the packed key of each product of
    levels[i] atoms to its index multisets, in lexicographic order.  One codec,
    of power max(levels) + len(extra), packs every level, so keys compare across
    levels and may gain one point of `extra`.  Each level's C(d+n-1, n) key sums
    are taken and reduced in C; nothing is sorted or decoded.  Before any of it,
    the cap admits the atom indices the groups store, n * C(d+n-1, n) for level
    n, as a running sum that refuses at the first level past the cap."""
    atoms = sigma.support()
    stored = 0
    for n in levels:
        require_positive(power=n)
        stored += n * math.comb(len(atoms) + n - 1, n)
        admit(stored, tuple_cap, f"{{}} atoms in the multisets up to level {n} of {len(atoms)} atoms")
    codec = _PackedCodec((*atoms, *extra), max(levels) + len(extra))
    keys = [codec.key(p) for p in atoms]
    groups: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in levels]
    for n, by_key in zip(levels, groups):
        products = map(codec.modulus.__rmod__, map(sum, itertools.combinations_with_replacement(keys, n)))
        for ms, key in zip(itertools.combinations_with_replacement(range(len(atoms)), n), products):
            by_key.setdefault(key, []).append(ms)
    return atoms, codec, groups


class Fibers(list):
    """The `FiberClass`es of one `fibers` call, with the `codec` that packed their keys."""

    __slots__ = ("codec",)


def fibers(sigma: AtomicMeasure, n: int, tuple_cap: int = Caps.tuples) -> Fibers:
    """Group the n-multisets of atoms by their product, in grouping order.

    The grouping is `_group_by_product`'s: each class is one packed key and its
    index multisets, under the engine's codec, which the list carries; nothing is
    sorted or decoded.  The two multiplicity routes, its only readers, count or
    arrange all d^n ordered tuples, so the cap counts those before the grouping's atoms."""
    admit(len(sigma) ** n, tuple_cap, f"{len(sigma)}^{n} tuples")
    _, codec, (by_key,) = _group_by_product(sigma, (n,), tuple_cap=tuple_cap)
    fcs = Fibers(map(FiberClass, by_key, map(tuple, by_key.values())))
    fcs.codec = codec
    return fcs


def _first_nonsimple_fiber(atoms, codec: _PackedCodec, by_key) -> dict | None:
    """The one witness, as every report prints it, that a level of `_group_by_product`
    is not simple: {"eigenvalue", "multiplicity", "multisets" as atom names}, in that
    order, of its eigenvalue-first product of two or more multisets, or None.  The only
    search for a shared product; one pass over the level, and only the witness's key decoded."""
    key = min((key for key, mss in by_key.items() if len(mss) > 1), key=codec.sort_key, default=None)
    if key is None:
        return None
    eigenvalue, mss = str(codec.point(*codec.sort_key(key))), by_key[key]
    return {"eigenvalue": eigenvalue, "multiplicity": len(mss), "multisets": _names(atoms, mss)}


def _names(atoms, multisets) -> list[list[str]]:
    """Each index multiset as the list of its atoms' names."""
    return [[str(atoms[i]) for i in ms] for ms in multisets]


class MultiplicityReport(Immutable):
    """Per-eigenvalue multiplicities of a tensor power restricted to the
    G-invariant subspace, with the generic/degenerate split made explicit.

    Built from the fibers of one route call and, per fiber, (multiplicity,
    tuples), tuples being its ordered tuple count as the route counted it (they
    total d^n).  `counts` holds each multiplicity by the packed key of its
    eigenvalue under `codec`, in the fibers' grouping order, and the routes are
    compared on it.  `entries` ({eigenvalue: multiplicity}) and `degenerate`
    ([(eigenvalue, multiplicity)] of the non-generic fibers) are views, sorted
    by eigenvalue and decoded on first read; `to_json_obj` and `to_table` print them.
    Only `counts` are compared, so a report is no `Record`."""

    __slots__ = (
        "power", "group", "codec", "counts", "generic_value", "homogeneous_on_generic",
        "generic_fiber_count", "total_tuples", "_degenerate_keys", "_views",
    )

    def __init__(self, power: int, group: PermSubgroup, fcs: Fibers, classified):
        counts, degenerate, generic_values, total = {}, set(), [], 0
        for fc, (mult, tuples) in zip(fcs, classified):
            counts[fc.key] = mult
            total += tuples
            if fc.is_generic:
                generic_values.append(mult)
            else:
                degenerate.add(fc.key)
        generic_value, homogeneous = _generic_summary(generic_values)
        fields = (
            power, group.describe(), fcs.codec, counts, generic_value, homogeneous, len(generic_values), total,
            degenerate, None,
        )
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _decoded(self) -> tuple[dict[CirclePoint, int], list[tuple[CirclePoint, int]]]:
        if self._views is None:
            decoded = self.codec.ordered((key, key) for key in self.counts)  # (eigenvalue, key), eigenvalue-sorted
            entries = {eig: self.counts[key] for eig, key in decoded}
            degenerate = [(eig, self.counts[key]) for eig, key in decoded if key in self._degenerate_keys]
            object.__setattr__(self, "_views", (entries, degenerate))
        return self._views

    @property
    def entries(self) -> dict[CirclePoint, int]:
        return self._decoded()[0]

    @property
    def degenerate(self) -> list[tuple[CirclePoint, int]]:
        return self._decoded()[1]

    def to_json_obj(self) -> dict:
        return {
            "power": self.power,
            "group": self.group,
            "entries": {str(eig): mult for eig, mult in self.entries.items()},
            "generic_value": self.generic_value,
            "degenerate": [[str(eig), mult] for eig, mult in self.degenerate],
            "homogeneous_on_generic": self.homogeneous_on_generic,
            "generic_fiber_count": self.generic_fiber_count,
            "total_tuples": self.total_tuples,
        }

    def to_table(self) -> str:
        degenerate = {eig for eig, _ in self.degenerate}
        rows = [("eigenvalue", "multiplicity", "kind")]
        rows += [
            (str(eig), str(mult), "degenerate" if eig in degenerate else "generic")
            for eig, mult in self.entries.items()
        ]
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        lines.append(
            f"generic value: {self.generic_value}  "
            f"(homogeneous: {self.homogeneous_on_generic}, "
            f"generic fibers: {self.generic_fiber_count}, tuples: {self.total_tuples})"
        )
        return "\n".join(lines)


def _generic_summary(values) -> tuple[int | None, bool]:
    """(v, True) when the generic multiplicities all equal v, else (None, False)."""
    values = set(values)
    if len(values) == 1:
        return values.pop(), True
    return None, False


def _cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with these images, largest first."""
    lengths = []
    unseen = set(images)
    while unseen:
        start = i = unseen.pop()
        length = 1
        while (i := images[i]) != start:
            unseen.remove(i)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _orbit_counts(elements, patterns) -> dict[tuple[int, ...], int]:
    """Per multiplicity pattern, the number of orbits of the group `elements`
    on the arrangements of a multiset with that pattern, by Burnside's lemma:
    (1/|G|) * sum over cycle types mu of c(mu) * fix(mu, pattern).

    The census c counts the elements per cycle type.  An element fixes an
    arrangement exactly when the arrangement is constant on each of its
    cycles, so fix(mu, pattern) counts the ways to give each cycle one value,
    value v covering pattern[v] positions; it depends on the pattern only as
    a multiset, which the memo key uses.  A sum that |G| does not divide
    means `elements` is not a group, and raises RuntimeError."""
    census = Counter(map(_cycle_type, elements))
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def fix(cycles, room):
        if not cycles:
            return 1
        if (cycles, room) not in memo:
            head, rest = cycles[0], cycles[1:]
            memo[cycles, room] = sum(
                fix(rest, tuple(sorted(room[:v] + (r - head,) + room[v + 1 :], reverse=True)))
                for v, r in enumerate(room)
                if r >= head
            )
        return memo[cycles, room]

    counts = {}
    for pattern in patterns:
        total = sum(c * fix(mu, pattern) for mu, c in census.items())
        counts[pattern], rest = divmod(total, len(elements))
        if rest:
            raise RuntimeError(
                f"Burnside sum {total} for pattern {pattern} is not a multiple of |G| = {len(elements)}"
            )
    return counts


def multiplicity(
    sigma: AtomicMeasure,
    n: int,
    G: PermSubgroup,
    caps: Caps = Caps(),
) -> MultiplicityReport:
    """Orbit-count route: multiplicity at z = number of G-orbits on the fiber.

    G permutes positions, so it maps the arrangements of each multiset onto
    themselves, and its orbit count there depends only on the multiset's
    multiplicity pattern.  Each pattern met is counted once per call by
    Burnside's lemma over the cycle-type census of `G.elements`
    (`_orbit_counts`); no arrangement is enumerated.  A fiber's multiplicity
    sums the counts over its multisets, and its tuple count their patterns'
    multinomials; each multiset's pattern is taken once.
    """
    if G.degree != n:
        raise ValueError(f"group degree {G.degree} does not match power {n}")
    fcs = fibers(sigma, n, caps.tuples)
    patterns = [[_pattern(ms) for ms in fc.index_multisets] for fc in fcs]
    orbits = _orbit_counts(G.elements, {p for ps in patterns for p in ps})
    tuples = {p: _arrangements(p) for p in orbits}
    return MultiplicityReport(n, G, fcs, [(sum(map(orbits.get, ps)), sum(map(tuples.get, ps))) for ps in patterns])


def matrix_oracle(
    sigma: AtomicMeasure,
    n: int,
    G: PermSubgroup,
    caps: Caps = Caps(),
) -> MultiplicityReport:
    """Rank route: multiplicity at z = N - rank of the stacked U_s - I over
    the fiber's N ordered tuples, s running over `G.generators`.

    A vector on the fiber is G-invariant exactly when every generator fixes
    it, so the invariant subspace is the common kernel of the U_s - I.  Each
    tuple t and generator s with s(t) != t gives the row e_{s(t)} - e_t;
    rows that differ only in sign span the same line, so each unordered
    pair of columns is one row, passed to `linalg.rank` as (min, max).
    Identity generators give no row and are skipped, so every getter moves
    two or more positions and returns a tuple.  Generators move positions,
    not values, so they act alike on multisets of one shape: each entry
    relabelled by its first position ((3, 3, 5, 7) has shape (0, 0, 2, 3)).
    Each shape's arrangement count and sorted column pairs are built once
    per call, and a multiset's pairs are its shape's, shifted past the
    columns before it; `linalg.rank` takes each fiber's pairs in one call.
    The route reads the generators and the fibers' multisets, never
    `G.elements`, orbits or multiplicity patterns.
    """
    if G.degree != n:
        raise ValueError(f"group degree {G.degree} does not match power {n}")
    d = len(sigma.support())
    # The rank route's own admission; `fibers` then admits the tuples on the caller's tuple cap.
    admit(d**n, caps.matrix, f"{d}^{n} matrix rows")
    identity = tuple(range(n))
    getters = [operator.itemgetter(*s.images) for s in G.generators if s.images != identity]
    templates: dict[tuple[int, ...], tuple[int, list[tuple[int, int]]]] = {}
    fcs, classified = fibers(sigma, n, caps.tuples), []
    for fc in fcs:
        rows, size = [], 0
        for ms in fc.index_multisets:
            shape = tuple(map(ms.index, ms))
            if shape not in templates:
                tuples = sorted(set(itertools.permutations(shape)))
                index_of = {t: j for j, t in enumerate(tuples)}
                moves = ((index_of[get(t)], j) for j, t in enumerate(tuples) for get in getters)
                templates[shape] = len(tuples), sorted({(i, j) if i < j else (j, i) for i, j in moves if i != j})
            count, pairs = templates[shape]
            rows += [(i + size, j + size) for i, j in pairs]
            size += count
        classified.append((size - linalg.rank(rows), size))
    return MultiplicityReport(n, G, fcs, classified)


def simple_spectrum(sigma: AtomicMeasure, n: int, tuple_cap: int = Caps.tuples) -> bool:
    """True when the n-th symmetric power is multiplicity-free: every product
    of n atoms is achieved by exactly one atom multiset.  The grouping admits its
    atoms; multisets are counted per packed key, and at most one witness decoded."""
    atoms, codec, (by_key,) = _group_by_product(sigma, (n,), tuple_cap=tuple_cap)
    return _first_nonsimple_fiber(atoms, codec, by_key) is None


def check_simplicity_levels(
    sigma: AtomicMeasure, max_level: int, tuple_cap: int = Caps.tuples
) -> dict:
    """Simplicity level by level, with the downward-monotonicity check:
    a simple level k forces simplicity at every level below it.  One grouping
    call packs levels 1..max_level, and each level's witness is built once
    (`_first_nonsimple_fiber`): a level is simple when it has none, and a violation
    carries the lower level's witness as it comes back.  The grouping admits the
    atoms of every level, level by level, before any level runs."""
    require_positive(**{"max level": max_level})
    atoms, codec, groups = _group_by_product(sigma, range(1, max_level + 1), tuple_cap=tuple_cap)
    witnesses = [_first_nonsimple_fiber(atoms, codec, by_key) for by_key in groups]
    violations = [
        {"lower": j, "higher": k, "witness": low}
        for (j, low), (k, high) in itertools.combinations(enumerate(witnesses, 1), 2)
        if high is None and low is not None
    ]
    return {
        "max_level": max_level,
        "levels": {str(j): w is None for j, w in enumerate(witnesses, 1)},
        "monotone": not violations,
        "violations": violations,
    }


# -- powers of a convolution power -------------------------------------------


def _ordered_totals(levels: Sequence[int], ms: Sequence[int]) -> list[dict[int, int]]:
    """Per m in the consecutive ms, the raw totals of the ordered m-tuples of the T `levels`,
    each with its tuple count, folded one level at a time: h_0 = {0: 1}, and h_j[t + l] += h_{j-1}[t]
    for every level atom l.  Step j takes |h_{j-1}| * T additions, where the tuples number T^j;
    no tuple is built.  The totals number C(d+kj-1, kj) at most, far fewer than the T^j tuples
    once j > 2, so these steps in Python beat summing every tuple in C: at k, m, d = 2, 3, 20
    they are 1.9 M against 9.3 M tuples of three."""
    h, out = {0: 1}, []
    for j in range(1, ms[-1] + 1):
        previous, h = h, {}
        get = h.get
        for t, c in previous.items():
            for level in levels:
                total = t + level
                h[total] = get(total, 0) + c
        if j >= ms[0]:
            out.append(h)
    return out


def _multiset_totals(levels: Sequence[int], ms: Sequence[int]) -> list[dict[int, int]]:
    """Per m in the consecutive ms, the raw totals of the m-multisets of the T `levels`, each with
    its multiset count: the fold of `_ordered_totals` with its loops swapped.  With h_0 = {0: 1},
    each level atom l in turn adds h_{j-1}[t] to h_j[t + l] for j rising, so h_{j-1} already holds
    the multisets that take l and l may repeat, while a multiset is reached in one order only, its
    level atoms in the order of `levels`.  One pass serves every m up to ms[-1]; each atom takes
    one addition per total of sizes below ms[-1], and no multiset is built."""
    h = [{0: 1}] + [{} for _ in range(ms[-1])]
    for level in levels:
        for previous, current in zip(h, h[1:]):
            get = current.get
            for t, c in previous.items():
                total = t + level
                current[total] = get(total, 0) + c
    return h[ms[0] :]


def _level_counts(
    sigma: AtomicMeasure, k: int, ms: Sequence[int], count, tuple_cap: int = Caps.tuples
) -> tuple[_PackedCodec, list[dict[str, dict[int, int]]]]:
    """(codec, counts per m in ms): `count(levels, ms)` counts the selections of m level atoms,
    each level atom the raw key sum of a k-multiset of base atoms, per raw total, by one fold step
    in two loop orders (`_ordered_totals` for tuples, `_multiset_totals` for multisets), and each
    distinct total is reduced to its key, undecoded.  The totals of m are the level-km groups of
    one grouping call, as each km-multiset totals its sorted runs of k, and a counter that misses
    or adds one is an engine error.  Past the guard below each key holds one multiset, generic when
    its atoms are distinct, so the generic keys are the key sums of the km-combinations of atoms,
    taken in C without reading a multiset.  The ms run consecutively, so the engine admits one lazy range.
    A shared product means a non-generic base: a caller error, named by the top level's witness
    (`_first_nonsimple_fiber`; a repeat at level j repeats above it).  The caller admits the selections."""
    atoms, codec, groups = _group_by_product(sigma, range(k * ms[0], k * ms[-1] + 1, k), tuple_cap=tuple_cap)
    if witness := _first_nonsimple_fiber(atoms, codec, groups[-1]):
        message = "base measure is not generic: {multiplicity} multisets {multisets} share product {eigenvalue}"
        raise RuntimeError(message.format(**witness))
    keys = list(map(codec.key, atoms))
    levels = [sum(c) for c in itertools.combinations_with_replacement(keys, k)]
    out = []
    for m, by_key, totals in zip(ms, groups, count(levels, ms)):
        counts = {total % codec.modulus: c for total, c in totals.items()}
        if counts.keys() != by_key.keys():
            raise RuntimeError(f"the level-{m} totals are not the products of the {k * m}-multisets")
        generic = set(map(codec.modulus.__rmod__, map(sum, itertools.combinations(keys, k * m))))
        out.append({
            "entries": counts,
            "generic": {key: counts[key] for key in by_key if key in generic},
            "degenerate": {key: counts[key] for key in by_key if key not in generic},
        })
    return codec, out


def _tensor_formula(k: int, m: int) -> int:
    """(mk)!/(k!)^m = product of C(jk, k), j = 1..m: block j takes k of the first jk points."""
    return math.prod(math.comb(j * k, k) for j in range(1, m + 1))


def _symmetric_formula(k: int, m: int) -> int:
    """(mk)!/((k!)^m m!) = product of C(jk - 1, k - 1): point jk's block takes k - 1 below it."""
    return math.prod(math.comb(j * k - 1, k - 1) for j in range(1, m + 1))


def _histogram(values) -> dict[str, int]:
    return {str(v): count for v, count in sorted(Counter(values).items())}


def _power_report(k: int, m: int, d: int, count, formula: int, G: PermSubgroup, caps: Caps) -> dict:
    """The report fields that the tensor and the symmetric power checks share,
    from "atoms" on, for a generic d-atom measure.  Runs the subgroup-orbit and
    matrix-rank routes unless their own admission refuses them, and compares
    each route's packed-key counts with the partition counts of `count` as they
    are, once the route's codec is shown to pack as the level counts' does (a
    RuntimeError if not): no key is decoded.  Then compares the generic value
    with the closed form."""
    sigma = generic_measure(d)
    codec, (counts,) = _level_counts(sigma, k, (m,), count, caps.tuples)
    n = k * m
    # Built per call, so that rebinding either route in this module reaches it.
    routes = (("orbit_route", multiplicity), ("matrix_route", matrix_oracle))
    route_reports: dict[str, dict] = {}
    for name, route in routes:
        try:
            rep = route(sigma, n, G, caps)
        except EnumerationCapError:
            route_reports[name] = {"ran": False}
            continue
        if rep.codec != codec:
            raise RuntimeError(f"the {name} packs its keys unlike the level counts")
        matches = rep.counts == counts["entries"]
        route_reports[name] = {
            "ran": True,
            "generic_value": rep.generic_value,
            "matches_partition_count": matches,
        }
    agree = all(r["matches_partition_count"] for r in route_reports.values() if r["ran"])

    generic_value, homogeneous = _generic_summary(counts["generic"].values())
    warning = None if d >= n else f"no generic fiber: d={d} < {n}"
    formula_ok = warning is not None or (homogeneous and generic_value == formula)
    return {
        "atoms": d,
        "formula": formula,
        "generic_value": generic_value,
        "homogeneous_on_generic": homogeneous,
        "generic_eigenvalues": len(counts["generic"]),
        "degenerate_histogram": _histogram(counts["degenerate"].values()),
        "group": G.describe(),
        **route_reports,
        "warning": warning,
        "passed": agree and formula_ok,
    }


def check_tensor_power(k: int, m: int, d: int, caps: Caps = Caps()) -> dict:
    """Multiplicity of the m-th tensor power of the k-fold convolution of a
    generic d-atom measure, against the closed form (mk)!/(k!)^m.

    Three routes where caps allow: ordered-partition counting over level
    atoms, orbit counting under the within-blocks subgroup of S(mk), and
    exact matrix rank.  All present routes must agree on every eigenvalue.
    """
    require_positive(k=k, m=m, d=d)
    G = contiguous_block_group(k, m)  # first: its degree km is capped, so the power below is cheap
    admit(math.comb(d + k - 1, k) ** m, caps.tuples, "{} level tuples")
    report = _power_report(k, m, d, _ordered_totals, _tensor_formula(k, m), G, caps)
    return {"conv_power": k, "tensor_power": m, **report}


def check_symmetric_power(k: int, m: int, d: int, caps: Caps = Caps()) -> dict:
    """Same as check_tensor_power but for the symmetric power: unordered
    m-multisets of k-multisets, closed form (mk)!/((k!)^m m!), cross-checked
    against the wreath subgroup (within-block permutations plus block swaps)."""
    require_positive(k=k, m=m, d=d)
    G = wreath_block_group(k, m)  # first: its degree km is capped, so the count below is cheap
    admit(math.comb(math.comb(d + k - 1, k) + m - 1, m), caps.tuples, "{} level multisets")
    report = _power_report(k, m, d, _multiset_totals, _symmetric_formula(k, m), G, caps)
    return {"conv_power": k, "symmetric_power": m, **report}


def fock_multiplicity_set(
    k: int,
    m_max: int,
    d: int,
    tuple_cap: int = Caps.tuples,
) -> dict:
    """Generic multiplicities of the symmetric powers m = 1..m_max of the
    k-fold convolution of one shared generic d-atom measure, plus the check
    that the convolution levels sigma^{*k}, sigma^{*2k}, ... are pairwise
    mutually singular (so the multiplicities genuinely live on disjoint
    spectral pieces).  The support of sigma^{*km} is the key set of the
    level-m counts, since every km-multiset of atoms splits into m
    k-multisets and all weights are positive; one `_level_counts` call packs
    every level with one codec, so no key is decoded, and the levels are singular
    exactly when their key sets are disjoint.  Before any level is counted, every level's
    selections are admitted, then level m_max's closed form, the largest printed, by the digits
    of 2^((k-1)(m-1)) <= (m!)^(k-1) <= (mk)!/((k!)^m m!) and exactly.  Below km atoms a level
    has no generic total: a failed check (exit 1), not an input error."""
    require_positive(k=k, m_max=m_max, d=d)
    # The m-multisets of T = C(d+k-1, k) level atoms, m <= m_max, number C(T+m_max, m_max) - 1 >= T.
    # By C(a+b, b) >= 2^min(a, b), with the exponent held just past the cap, each is refused first.
    what, past = f"{{}} level multisets up to level {m_max}", tuple_cap.bit_length() + 1
    admit(2 ** min(d - 1, k, past), tuple_cap, "at least " + what)
    T = math.comb(d + k - 1, k)
    admit(2 ** min(T, m_max, past) - 1, tuple_cap, "at least " + what)
    admit(math.comb(T + m_max, m_max) - 1, tuple_cap, what)
    _admit_digits(f"level {m_max} formula", bits=(k - 1) * (m_max - 1))
    _admit_digits(f"level {m_max} formula", _symmetric_formula(k, m_max))
    _, per_m = _level_counts(generic_measure(d), k, range(1, m_max + 1), _multiset_totals, tuple_cap)
    formulas = {str(m): _symmetric_formula(k, m) for m in range(1, m_max + 1)}
    per_level = {m: _generic_summary(counts["generic"].values())[0] for m, counts in zip(formulas, per_m)}
    levels = [counts["entries"].keys() for counts in per_m]
    disjoint = len(set().union(*levels)) == sum(map(len, levels))
    warning = None if d >= k * m_max else f"no generic fiber above level {d // k}: d={d} < {k * m_max}"
    return {
        "conv_power": k,
        "max_level": m_max,
        "atoms": d,
        "per_level": per_level,
        "formula_per_level": formulas,
        "set": sorted(set(v for v in per_level.values() if v is not None)),
        "levels_pairwise_singular": disjoint,
        "warning": warning,
        "passed": per_level == formulas and disjoint,
    }


# -- arithmetic criteria -------------------------------------------------------


def _admit_digits(name: str, value: int | None = None, bits: int = 0) -> None:
    """Admit an int a report prints against the int-to-str digit limit: by its
    exact digit count, or, before it is computed, by that of 2^bits <= it."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    bits = bits if value is None else value.bit_length() - 1
    digits = bits * 301029995 // 10**9 + 1  # digits of 2^bits, at least: log10(2) > 0.301029995
    while value is not None and value >= 10**digits:
        digits += 1
    admit(digits, limit, f"{'at least ' if value is None else ''}{digits} digits of the {name}")


def cs_criterion(k: int, m: int, n: int) -> dict:
    """Exact big-integer comparison (m!)^n * (k!)^m > (mk)!.

    When it holds, the order of the strand-wise subgroup exceeds the level
    multiplicity (mk)!/(k!)^m, which is the model's finite witness for the
    k-fold convolution being singular to every product of n levels.

    Both integers are reported, so each is admitted against the int-to-str
    digit limit by its exact digit count, and first, before any factorial is
    computed, by a lower bound: (m!)^n >= 2^(n(m-1)), and (mk)!/(k!)^m >=
    (m!)^k >= 2^(k(m-1)) as the row and column subgroups of S(mk) meet trivially."""
    require_positive(k=k, m=m, n=n)
    names = ("group order (m!)^n", "tensor multiplicity (mk)!/(k!)^m")
    for name, bits in zip(names, (n * (m - 1), k * (m - 1))):
        _admit_digits(name, bits=bits)
    group_order = math.factorial(m) ** n
    tensor_multiplicity = _tensor_formula(k, m)
    for name, value in zip(names, (group_order, tensor_multiplicity)):
        _admit_digits(name, value)
    return {
        "conv_power": k,
        "level_power": m,
        "factors": n,
        "group_order": group_order,
        "tensor_multiplicity": tensor_multiplicity,
        "holds": group_order > tensor_multiplicity,
    }


def minimal_m_for_cs(k: int) -> dict:
    """Smallest m with a_m = (m!)^(k+1) (k!)^m / (mk)! > 1, with the full
    exact sequence of a_m values computed along the way.  a_m is the ratio
    of the two integers of `cs_criterion(k, m, k + 1)`, whose digit admission
    is the search's only other end.  log a_m grows like m log m, so the search
    ends for every k: under the default limit of 4300 digits, k <= 6 is found
    (m = 156 at k = 6) and every k >= 7 is refused."""
    require_positive(k=k)
    sequence: list[str] = []
    for m in itertools.count(1):
        rep = cs_criterion(k, m, k + 1)
        sequence.append(str(Fraction(rep["group_order"], rep["tensor_multiplicity"])))
        if rep["holds"]:
            return {"conv_power": k, "m": m, "sequence": sequence}


# -- translate singularity and the non-simple construction ---------------------


def check_translate_singularity(
    sigma: AtomicMeasure,
    n: int,
    m: int,
    a: CirclePoint,
    tuple_cap: int = Caps.tuples,
) -> dict:
    """Is sigma^{*n} singular to the a-translate of sigma^{*m}?

    Weights are positive, so the two are singular exactly when no product of
    m atoms and a is a product of n atoms.  One grouping call packs levels n
    and m with a as the extra point, and no key is decoded.
    For a generic base they are singular when a carries a generator the base
    does not use, and for n != m when a is the identity; a shift in the group
    the atoms generate can make them meet (over g0, ..., g3, a = g0 gives
    g1 * a = g0 * g1 at n = 2, m = 1)."""
    require_positive(n=n, m=m)
    _, codec, (left, right) = _group_by_product(sigma, (n, m), (a,), tuple_cap)
    shift = codec.key(a)
    return {
        "n": n,
        "m": m,
        "shift": str(a),
        "singular": not any(codec.product((key, shift)) in left for key in right),
    }


def nonsimple_counterexample(
    sigma: AtomicMeasure, a: CirclePoint, tuple_cap: int = Caps.tuples
) -> dict:
    """Build tau = sigma + sigma * delta_a and exhibit the failure of
    simplicity of its symmetric square.

    tau's translate by a shares the whole shifted copy with tau, so the two
    are far from singular, and any two base atoms x, y give one eigenvalue
    x*y*a realized by the two distinct multisets {x, y*a} and {x*a, y}.
    With a single base atom x there is no such pair, and the symmetric square
    is simple unless a^2 = 1, when {x, x} and {x*a, x*a} share x^2.  The witness
    is level 2's `_first_nonsimple_fiber`, printed as it comes back."""
    if len(sigma) < 1:
        raise ValueError("base measure must have at least one atom")
    if a.is_identity:
        raise ValueError("shift must not be the identity")
    shifted = sigma.translate(a)
    tau = sigma + shifted
    atoms, codec, (by_key,) = _group_by_product(tau, (2,), tuple_cap=tuple_cap)  # admits tau before the scan
    if relation_scan(sigma, 2, tuple_cap):
        raise ValueError("base measure must be generic (relation scan up to degree 2 failed)")
    if not sigma.is_singular_to(shifted):
        raise ValueError("shift collides with the base measure; pick a relation-free shift")
    tau_shift = tau.translate(a)
    overlap = [p for p in tau.support() if tau_shift.weight(p) > 0]
    witness = _first_nonsimple_fiber(atoms, codec, by_key)
    return {
        "base_atoms": len(sigma),
        "shift": str(a),
        "tau_atoms": len(tau),
        "overlap": [str(p) for p in overlap],
        "translate_not_singular": bool(overlap),
        "simple_level_2": witness is None,
        "witness": witness,
        "note": None if witness else "needs at least 2 base atoms for a second multiset",
        "found": bool(overlap) and witness is not None,
    }


# -- multiplicity amplification -------------------------------------------------


def girsanov_step(sigma: AtomicMeasure, n: int, tuple_cap: int = Caps.tuples) -> dict:
    """Squares a symmetric multiplicity by doubling the level.

    If some level-n eigenvalue is realized by q distinct multisets, gluing
    those multisets pairwise onto a second high-multiplicity eigenvalue
    yields a level-2n eigenvalue realized by at least q^2 multisets.  The
    search tries the product of the two highest-multiplicity level-n
    eigenvalues first (the construction's own witness) before scanning all
    level-2n fibers.  q = 1 makes the claim trivially true.  One grouping call, which
    admits its atoms first, packs levels 1, n and 2n, so the candidate's key is its
    factors' key sum; keys rank by (-count, eigenvalue order); only printed ones decode."""
    require_positive(power=n)
    if len(sigma) < 1:
        raise ValueError("measure must have at least one atom")
    atoms, codec, (level_1, level_n, level_2n) = _group_by_product(sigma, (1, n, 2 * n), tuple_cap=tuple_cap)

    def top(by_key, skip=None):
        """The first key other than `skip` by (-count, eigenvalue order), or
        `skip` when no other is left; only the largest count's keys decode."""
        counts = {key: len(mss) for key, mss in by_key.items() if key != skip}
        most = max(counts.values(), default=None)
        return min((key for key, c in counts.items() if c == most), key=codec.sort_key, default=skip)

    top_key = top(level_n)
    second_key = top(level_n, skip=top_key)
    q = len(level_n[top_key])
    candidate_key = codec.product((top_key, second_key))
    candidate_count = len(level_2n.get(candidate_key, ()))
    required = q * q
    chosen_key = candidate_key if candidate_count >= required else top(level_2n)
    keys = (top_key, second_key, candidate_key, chosen_key)
    top_eig, second_eig, candidate, chosen = (str(codec.point(*codec.sort_key(key))) for key in keys)
    chosen_count = len(level_2n[chosen_key])
    return {
        "level": n,
        "q": q,
        "trivial": q == 1,
        "top_eigenvalue": top_eig,
        "top_multisets": _names(atoms, level_n[top_key]),
        "second_eigenvalue": second_eig,
        "second_multisets": _names(atoms, level_n[second_key]),
        "candidate_eigenvalue": candidate,
        "candidate_count": candidate_count,
        "chosen_eigenvalue": chosen,
        "chosen_count": chosen_count,
        "required": required,
        "witness_multisets": _names(atoms, level_2n[chosen_key]),
        "level_max": {
            "1": max(len(mss) for mss in level_1.values()),
            str(n): q,
            str(2 * n): max(len(mss) for mss in level_2n.values()),
        },
        "satisfied": chosen_count >= required,
    }


def paired_relation_measure() -> AtomicMeasure:
    """Eight atoms carrying two independent product relations
    x*y = z*w and x'*y' = z'*w': the designed input whose symmetric square
    has multiplicity 2 and whose fourth symmetric power reaches 4."""
    alloc = GeneratorAllocator()
    weights = {}
    for _ in range(2):
        x, y, z = (alloc.fresh_point() for _ in range(3))
        w = x * y * z.inverse()
        for p in (x, y, z, w):
            weights[p] = Fraction(1, 8)
    return AtomicMeasure(weights)

