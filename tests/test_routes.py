"""The route ledger: which criterion catches a fault in which route.

Each row injects one plausible wrong answer into one function, runs only
the criterion that should notice, at seed 0, and expects `passed` to be
False or an engine `RuntimeError`; `test_acceptance.py` shows each
criterion passing without a fault.  A fault that no criterion catches is
not dropped: it sits on `MISSED`, with the reason, and its test asserts
that it is still missed.  Those claims rest on one route each; the README
lists them.  When a new route starts to catch one, that test fails, and
the row moves to `CAUGHT`.
"""

import itertools
import os
import sys

import pytest

import circlespec
from circlespec import linalg, markov, spectral, suite
from circlespec.circle import CirclePoint, _PackedCodec
from circlespec.errors import Caps
from circlespec.markov import Coupling
from circlespec.measure import AtomicMeasure, generic_measure
from circlespec.permgroup import contiguous_block_group

SEED = 0


def _wrap(owner, name, change):
    """A patch that rebinds owner.name to a wrapper passing its result through `change`."""
    original = getattr(owner, name)
    return owner, name, lambda *args, **kwargs: change(original(*args, **kwargs))


def _bump_first(part):
    """Wrap `_level_counts` so that the first count of `part` in its first level is one more."""

    def change(result):
        codec, per_m = result
        counts = per_m[0][part]
        counts[next(iter(counts))] += 1
        return codec, per_m

    return _wrap(spectral, "_level_counts", change)


def _meet_levels(result):
    """Copy one key of the first level's counts into the second: the levels meet."""
    codec, per_m = result
    first = per_m[0]["entries"]
    key = next(iter(first))
    per_m[1]["entries"][key] = first[key]
    return codec, per_m


def _group_with(attribute, keep):
    """Wrap `contiguous_block_group` so that its `attribute` keeps only `keep` of
    it, set past the immutability guard, as a bug inside the class would."""

    def change(G):
        object.__setattr__(G, attribute, keep(getattr(G, attribute)))
        return G

    return _wrap(spectral, "contiguous_block_group", change)


def _bump_orbit_count(counts):
    counts[max(counts)] += 1
    return counts


def _bump_direct(result):
    """One numerator of the direct side of `project_markov` one more."""
    rows, den = result
    return [(rows[0][0] + 1, *rows[0][1:]), *rows[1:]], den


def _shift_rectangle(c):
    """Move mass around the top-left 2x2 rectangle of a coupling's joint: both
    marginals stay exact, so only the projection identity can notice."""
    if len(c.joint) < 2 or c.right.size < 2:
        return c
    joint = [list(row) for row in c.joint]
    eps = min(joint[0][0], joint[1][1]) / 2
    joint[0][0] -= eps
    joint[0][1] += eps
    joint[1][0] += eps
    joint[1][1] -= eps
    return Coupling(c.left, c.right, joint)


def _bump_coupling(c):
    """The first joint entry 1/7 more, past validation, as a bug in the derivation would."""
    nums = [[7 * n for n in row] for row in c.nums]
    nums[0][0] += c.den
    return Coupling._canonical(c.left, c.right, nums, 7 * c.den)


def _double_modulus(self, *args, init=_PackedCodec.__init__):
    """Build the codec, then double its modulus: the rotation digit is reduced mod 2 instead of mod 1."""
    init(self, *args)
    self.modulus *= 2


def _orbit_route_packed_one_higher(sigma, n, G, cap, route=spectral.multiplicity):
    """The orbit route with its fibers grouped under a codec of power n + 1: one
    more point, the identity, packed beside the atoms."""
    group = spectral._group_by_product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_group_by_product", lambda s, levels, extra=(), tuple_cap=Caps.tuples: group(
            s, levels, (*extra, CirclePoint()), tuple_cap
        ))
        return route(sigma, n, G, cap)


def _full_product_left_out(factor, den, original=markov._expectation_nums):
    """The expectation rows, but all zero for the term that selects every component (p_T = Id)."""
    rows = original(factor, den)
    return rows if len(factor.selected) < len(factor.components) else [[0] * len(row) for row in rows]


# (criterion, fault) -> the patch that injects the fault.  `suite` imports its
# engines by name, so a fault in a criterion's own call is patched on `suite`.
CAUGHT = {
    ("orbit-formula", "orbit count one more"): _wrap(suite, "orbit_count_free", lambda n: n + 1),
    ("cs-arithmetic", "minimal m one more"): _wrap(
        suite, "minimal_m_for_cs", lambda rep: {**rep, "m": rep["m"] + 1}
    ),
    ("translate-singularity", "always singular"): _wrap(
        suite, "check_translate_singularity", lambda rep: {**rep, "singular": True}
    ),
    ("multiplicity-amplification", "last witness multiset dropped"): _wrap(
        suite, "girsanov_step", lambda rep: {**rep, "witness_multisets": rep["witness_multisets"][:-1]}
    ),
    ("fock-multiplicity-set", "levels meet"): _wrap(spectral, "_level_counts", _meet_levels),
    ("tensor-power-multiplicity", "linalg.rank one less"): _wrap(linalg, "rank", lambda r: r - 1),
    ("tensor-power-multiplicity", "one orbit count +1"): _wrap(spectral, "_orbit_counts", _bump_orbit_count),
    ("tensor-power-multiplicity", "one level count +1"): _bump_first("entries"),
    ("tensor-power-multiplicity", "last generator dropped"): _group_with("generators", lambda gs: gs[:-1]),
    ("tensor-power-multiplicity", "last group element dropped"): _group_with("elements", lambda es: es[:-1] or es),
    ("tensor-power-multiplicity", "orbit route's fibers packed by a codec of power n + 1"): (
        spectral, "multiplicity", _orbit_route_packed_one_higher
    ),
    ("fock-multiplicity-set", "one generic level count +1"): _bump_first("generic"),
    ("nonsimple-symmetric-square", "every level simple"): (spectral, "_first_nonsimple_fiber", lambda *a: None),
    ("simplicity-monotone", "every level simple"): (spectral, "_first_nonsimple_fiber", lambda *a: None),
    ("markov-identities", "direct side one entry off"): _wrap(markov, "_factored_expectation", _bump_direct),
    ("markov-identities", "extension side mass moved around a rectangle"): _wrap(
        markov, "rel_indep_extension", _shift_rectangle
    ),
    ("markov-identities", "coupling_from_markov one entry off"): _wrap(markov, "coupling_from_markov", _bump_coupling),
    ("markov-identities", "linalg.kron blocks in the wrong order"): (
        linalg, "kron", lambda a, b, kron=linalg.kron: kron(b, a)
    ),
    ("markov-identities", "the full-product term left out"): (markov, "_expectation_nums", _full_product_left_out),
}

# (criterion, fault) -> (the patch, why no criterion catches it)
MISSED = {
    ("nonsimple-symmetric-square", "is_singular_to as 'the measures differ'"): (
        (AtomicMeasure, "is_singular_to", lambda self, other: self != other),
        "the shift's singularity to the base is read from is_singular_to alone",
    ),
    ("nonsimple-symmetric-square", "relation_scan finds nothing"): (
        (spectral, "relation_scan", lambda *args: []),
        "the base's genericity is read from relation_scan alone",
    ),
    ("simplicity-monotone", "codec reduces the rotation mod 2 instead of mod 1"): (
        (_PackedCodec, "__init__", _double_modulus),
        "no criterion runs a relation that needs the reduction (rational parts summing to 1 or more), and the "
        "known-answer row that would catch it changes `suite --seed 0` stdout, whose sha256 bench/workloads.py pins",
    ),
}


def _run(criterion):
    """The criterion's `passed`, or False when an engine raises RuntimeError."""
    try:
        return dict(suite.CRITERIA)[criterion](SEED, Caps())["passed"]
    except RuntimeError:
        return False


@pytest.mark.parametrize("row", sorted(CAUGHT), ids=" / ".join)
def test_each_fault_is_caught_by_its_criterion(row, monkeypatch):
    monkeypatch.setattr(*CAUGHT[row])
    assert _run(row[0]) is False


def test_routes_packed_unlike_the_level_counts_are_refused_by_name(monkeypatch):
    """The routes are compared with the level counts on packed keys, so a codec
    that packs otherwise is an engine error, not a silent mismatch."""
    monkeypatch.setattr(spectral, "multiplicity", _orbit_route_packed_one_higher)
    with pytest.raises(RuntimeError, match="^the orbit_route packs its keys unlike the level counts$"):
        spectral.check_tensor_power(1, 3, 5)


@pytest.mark.parametrize("row", sorted(MISSED), ids=" / ".join)
def test_each_allowed_fault_is_still_missed(row, monkeypatch):
    patch, reason = MISSED[row]
    monkeypatch.setattr(*patch)
    assert _run(row[0]) is True, f"now caught, move it to CAUGHT: {reason}"


# -- the route audit -----------------------------------------------------------
# The `src` functions that both routes of each pair of `_power_report`'s
# multiplicity routes call, on a generic 6-atom measure at k = m = 2.  A fault
# in one of them reaches both routes of the pair, so their agreement cannot
# catch it (the codec row on `MISSED` is one).  A change that makes one route
# call into another fails here until it declares the new sharing.
SHARED_BY_ALL_ROUTES = {
    "circle._PackedCodec.__init__",
    "circle._PackedCodec.key",
    "errors.admit",  # the grouping engine admits its own enumeration
    "errors.require_positive",
    "measure.AtomicMeasure.support",
    "spectral._group_by_product",
}
SHARED = {
    ("level", "orbit"): SHARED_BY_ALL_ROUTES,
    ("level", "rank"): SHARED_BY_ALL_ROUTES,
    # both read `fibers`, and their reports label its packed keys; nothing decodes them
    ("orbit", "rank"): SHARED_BY_ALL_ROUTES | {
        "measure.AtomicMeasure.__len__",
        "permgroup.Perm.serialize",
        "permgroup.PermSubgroup.describe",
        "permgroup.PermSubgroup.order",
        "spectral.FiberClass.is_generic",
        "spectral.MultiplicityReport.__init__",
        "spectral._generic_summary",
        "spectral.fibers",
    },
}
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _calls(run):
    """The `src` functions that `run()` calls, as module.qualname; comprehension frames are left out."""
    src = os.path.dirname(circlespec.__file__)
    called = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == src and code.co_name not in COMPREHENSIONS:
            called.add(f"{os.path.basename(code.co_filename)[:-3]}.{code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return called


@pytest.mark.parametrize("pair", sorted(SHARED), ids=" & ".join)
def test_each_pair_of_multiplicity_routes_shares_only_its_declared_functions(pair):
    sigma, k, m = generic_measure(6), 2, 2
    G = contiguous_block_group(k, m)
    routes = {
        "level": lambda: spectral._level_counts(sigma, k, (m,), lambda levels, m: itertools.product(levels, repeat=m)),
        "orbit": lambda: spectral.multiplicity(sigma, k * m, G),
        "rank": lambda: spectral.matrix_oracle(sigma, k * m, G),
    }
    first, second = (_calls(routes[name]) for name in pair)
    assert first & second == SHARED[pair]
