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

from fractions import Fraction

import pytest

from circlespec import linalg, markov, spectral, suite
from circlespec.errors import Caps
from circlespec.markov import Coupling
from circlespec.measure import AtomicMeasure

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
    joint = [list(row) for row in c.joint]
    joint[0][0] += Fraction(1, 7)
    return Coupling._canonical(c.left, c.right, tuple(map(tuple, joint)))


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
    ("fock-multiplicity-set", "one generic level count +1"): _bump_first("generic"),
    ("nonsimple-symmetric-square", "every level simple"): (spectral, "_first_nonsimple_fiber", lambda *a: None),
    ("simplicity-monotone", "every level simple"): (spectral, "_first_nonsimple_fiber", lambda *a: None),
    ("markov-identities", "direct side one entry off"): _wrap(markov, "_factored_expectation", _bump_direct),
    ("markov-identities", "extension side mass moved around a rectangle"): _wrap(
        markov, "rel_indep_extension", _shift_rectangle
    ),
    ("markov-identities", "coupling_from_markov one entry off"): _wrap(markov, "coupling_from_markov", _bump_coupling),
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


@pytest.mark.parametrize("row", sorted(MISSED), ids=" / ".join)
def test_each_allowed_fault_is_still_missed(row, monkeypatch):
    patch, reason = MISSED[row]
    monkeypatch.setattr(*patch)
    assert _run(row[0]) is True, f"now caught, move it to CAUGHT: {reason}"
