"""Seeded inputs and op lists for the benchmark workloads.

`build(name, seed)` returns a Workload: a fixed list of named ops.  An op is
a zero-argument callable that runs library code and raises CheckFailed when
the output disagrees with what it must be.  Where a check needs an expected
value, that value is computed here with plain integer arithmetic, not with
the library.  The same seed always builds the same inputs; the seed chooses
the atoms, probabilities and couplings, while the shapes (atom counts,
powers, product dimensions) are fixed per workload so that every seed asks
for about the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Library calls go through the module objects, so that the span wrappers of a
# traced run, which replace the modules' bindings, see them.
from circlespec import markov, measure, spectral
from circlespec.circle import CirclePoint
from circlespec.markov import Coupling, FactorStructure, FiniteSpace, MarkovOp, product_space
from circlespec.measure import AtomicMeasure
from circlespec.permgroup import PermSubgroup, contiguous_block_group

# sha256 of `circlespec suite --seed 0` stdout, the reference the ROADMAP fixes.
SUITE_SEED0_SHA256 = "cb01aef9f67a3c35b251154a9f61e1e9a9f3b57cc1d252d12e48c7286ad2a083"

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    """An op ran but its output was wrong."""


@dataclass
class Op:
    """`run` returns None, or the resource usage of the child process it ran."""

    name: str
    run: Callable[[], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    digests: list[str] = field(default_factory=list)  # sha256 of each in-process suite stdout


# -- suite ----------------------------------------------------------------------
#
# Why: `circlespec suite` is the end-to-end command users and the ROADMAP name.
# It runs the whole acceptance battery and is dominated by generic fibers
# (CirclePoint multiplication inside `fibers`); the rank route hardly runs.
# One op is one child process, so interpreter start and import are in it.


def check_suite_output(seed: int, returncode: int, stdout: bytes) -> None:
    if returncode != 0:
        raise CheckFailed(f"suite exited with code {returncode}")
    if seed == 0 and hashlib.sha256(stdout).hexdigest() != SUITE_SEED0_SHA256:
        raise CheckFailed("suite --seed 0 stdout differs from the reference hash")
    try:
        envelope = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"suite stdout is not JSON: {exc}") from None
    if envelope.get("passed") is not True:
        raise CheckFailed("suite reported passed != true")


def _suite_op(seed: int):
    cmd = [sys.executable, "-m", "circlespec.cli", "suite", "--seed", str(seed)]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)

    def run():
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            out = proc.stdout.read()
            err = proc.stderr.read()
            # wait4 rather than wait: it also returns the child's peak RSS and CPU time.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise CheckFailed(f"suite exited with code {proc.returncode}: {err.decode(errors='replace')[-300:]}")
        check_suite_output(seed, proc.returncode, out)
        return usage

    return run


def _suite_in_process_op(seed: int, digests: list[str]):
    from circlespec import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            returncode = cli.main(["suite", "--seed", str(seed)])
        stdout = out.getvalue().encode()
        digests.append(hashlib.sha256(stdout).hexdigest())
        check_suite_output(seed, returncode, stdout)

    return run


def build_suite(seed: int, in_process: bool = False) -> Workload:
    """One op: the suite in a child process, or, for the traced run, through
    `cli.main` in this process, where the span wrappers can see it."""
    import circlespec.cli  # noqa: F401  (each suite child pays this import as well)

    workload = Workload("suite", [])
    run = _suite_in_process_op(seed, workload.digests) if in_process else _suite_op(seed)
    workload.ops.append(Op("suite", run))
    return workload


# -- relation-rank ----------------------------------------------------------------
#
# Why: measures whose atoms share one or two generators carry many product
# relations, so their fibers are few, large and non-generic.  There the rank
# route (`matrix_oracle`, i.e. the block build plus `linalg.rank`) takes
# most of the time, while `suite` barely runs it.  This workload is the
# one a change to `linalg.rank` or to the block build should move.

TWELFTHS = (0, 6, 4, 3, 8, 9)  # rotations 0, 1/2, 1/3, 1/4, 2/3, 3/4 in twelfths
EXPONENTS = (-1, 1, 2)
# (atoms d, power n, shared generators, band of the expected fiber size).
# Every d**n stays within the default matrix_cap of 4096 and every op within
# about two seconds on one core.  The rank route's work grows with the
# expected fiber size of a uniformly drawn n-tuple, sum(s**2) / d**n over the
# fiber sizes s, and one generator's worth of relations can double it; a
# measure outside its slot's band (about the middle half of what the draw
# gives) is drawn again, so that every seed asks for about the same work.
RELATION_SLOTS = (
    (8, 4, 1, 46, 60),
    (7, 4, 1, 31, 41),
    (6, 4, 1, 20, 27),
    (7, 4, 2, 16, 20),
    (8, 3, 1, 8.5, 11),
    (4, 5, 1, 31, 40),
    (5, 4, 1, 14, 20),
)
# Two measures per shape halve what one seed's draw can move the op-latency
# percentiles by.
MEASURES_PER_SLOT = 2
SCAN_DEGREE = 4
SIMPLICITY_LEVELS = 4


def related_atoms(rng: random.Random, d: int, pool: int) -> list[tuple[int, tuple[int, ...]]]:
    """d distinct atoms as (rotation in twelfths, exponent vector over the
    shared generators g0..g{pool-1}); each atom uses 1..pool of them."""
    atoms: list[tuple[int, tuple[int, ...]]] = []
    while len(atoms) < d:
        used = rng.sample(range(pool), rng.randint(1, pool))
        vec = tuple(rng.choice(EXPONENTS) if g in used else 0 for g in range(pool))
        atom = (rng.choice(TWELFTHS), vec)
        if atom not in atoms:
            atoms.append(atom)
    return atoms


def _key(atoms, combo) -> tuple[int, tuple[int, ...]]:
    """Product of the atoms with these indices, as (twelfths mod 12, exponents)."""
    rot = sum(atoms[i][0] for i in combo) % 12
    vec = tuple(sum(col) for col in zip(*(atoms[i][1] for i in combo)))
    return rot, vec


def _point_key(p: CirclePoint, pool: int) -> tuple[int, tuple[int, ...]]:
    exps = dict(p.generic)
    return int(p.rational * 12), tuple(exps.get(g, 0) for g in range(pool))


def _level_counts(atoms, n: int) -> tuple[Counter, dict]:
    """Tuples and distinct multisets per product, over all n-tuples."""
    tuples: Counter = Counter()
    multisets: dict = {}
    for combo in itertools.product(range(len(atoms)), repeat=n):
        key = _key(atoms, combo)
        tuples[key] += 1
        multisets.setdefault(key, set()).add(tuple(sorted(combo)))
    return tuples, {k: len(v) for k, v in multisets.items()}


def _relation_count(atoms, degree: int) -> int:
    """Subsets of 1..degree atoms with a +1-led sign vector whose generic
    exponents cancel: the relations `relation_scan` must report."""
    found = 0
    for size in range(1, min(degree, len(atoms)) + 1):
        for subset in itertools.combinations(atoms, size):
            for tail in itertools.product((1, -1), repeat=size - 1):
                signs = (1,) + tail
                if all(sum(s * a[1][g] for s, a in zip(signs, subset)) == 0 for g in range(len(subset[0][1]))):
                    found += 1
    return found


def _groups(n: int) -> dict[str, PermSubgroup]:
    groups = {
        "trivial": PermSubgroup.trivial(n),
        "cyclic": PermSubgroup.cyclic(n),
        "symmetric": PermSubgroup.symmetric(n),
    }
    if n % 2 == 0:
        groups["block"] = contiguous_block_group(2, n // 2)
    return groups


def _rank_op(mu, n, G, pool, expected_tuples, expected_multisets, gname):
    def run():
        orbit = spectral.multiplicity(mu, n, G)
        rank = spectral.matrix_oracle(mu, n, G)
        if orbit.entries != rank.entries:
            raise CheckFailed("orbit route and rank route disagree")
        got = {_point_key(p, pool): m for p, m in orbit.entries.items()}
        if gname == "trivial" and got != dict(expected_tuples):
            raise CheckFailed("trivial-group multiplicities differ from the tuple counts")
        if gname == "symmetric" and got != expected_multisets:
            raise CheckFailed("symmetric-group multiplicities differ from the multiset counts")
        if orbit.total_tuples != len(mu.support()) ** n:
            raise CheckFailed("fibers do not cover every tuple")

    return run


def _simplicity_op(mu, expected_levels):
    def run():
        rep = spectral.check_simplicity_levels(mu, SIMPLICITY_LEVELS)
        if rep["levels"] != expected_levels or not rep["monotone"]:
            raise CheckFailed(f"simplicity levels {rep['levels']} != {expected_levels}")

    return run


def _scan_op(mu, expected):
    def run():
        found = measure.relation_scan(mu, SCAN_DEGREE)
        if len(found) != expected or not all(r.constant.is_rational for r in found):
            raise CheckFailed(f"relation scan found {len(found)} relations, expected {expected}")

    return run


def _relation_ops(rng, label, d, n, pool, low, high) -> list[Op]:
    while True:
        atoms = related_atoms(rng, d, pool)
        tuples, multisets = _level_counts(atoms, n)
        if low <= sum(s * s for s in tuples.values()) / d**n <= high:
            break
    mu = AtomicMeasure(
        {
            CirclePoint(Fraction(rot, 12), {g: e for g, e in enumerate(vec) if e}): rng.randint(1, 4)
            for rot, vec in atoms
        }
    )
    ops = [
        Op(f"rank:{label}:d{d}n{n}:{gname}", _rank_op(mu, n, G, pool, tuples, multisets, gname))
        for gname, G in _groups(n).items()
    ]
    levels = {}
    for j in range(1, SIMPLICITY_LEVELS + 1):
        _, per_key = _level_counts(atoms, j)
        levels[str(j)] = all(c == 1 for c in per_key.values())
    ops.append(Op(f"simplicity:{label}:d{d}", _simplicity_op(mu, levels)))
    ops.append(Op(f"scan:{label}:d{d}", _scan_op(mu, _relation_count(atoms, SCAN_DEGREE))))
    return ops


def build_relation_rank(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for slot, (d, n, pool, low, high) in enumerate(RELATION_SLOTS):
        for copy in range(MEASURES_PER_SLOT):
            ops.extend(_relation_ops(rng, f"{slot}.{copy}", d, n, pool, low, high))
    return Workload("relation-rank", ops)


# -- markov-identities --------------------------------------------------------------
#
# Why: the Markov identities run on `linalg` products (`mat_mul`, `kron`,
# `mat_add`) and Fraction-heavy validation, with no circle, spectral or
# permgroup code.  A fiber-engine change should leave this workload alone, and
# so should a change to `linalg.rank`, although it lives in the same module.

MARKOV_SHAPES = ((3, 3, 3, 3), (4, 4, 4), (2, 3, 4, 4))  # 3-4 components of 2-4 points
LEFT_SIZE = 3
ROUND_TRIPS = 20


def _space(rng: random.Random, size: int, prefix: str) -> FiniteSpace:
    weights = [rng.randint(1, 5) for _ in range(size)]
    total = sum(weights)
    return FiniteSpace((f"{prefix}{i}" for i in range(size)), (Fraction(w, total) for w in weights))


def _coupling_onto(rng: random.Random, full: FiniteSpace, left_size: int) -> Coupling:
    """A coupling whose right marginal is exactly `full`."""
    joint = [[Fraction(0)] * full.size for _ in range(left_size)]
    for j in range(full.size):
        column = [rng.randint(1, 9) for _ in range(left_size)]
        for i, e in enumerate(column):
            joint[i][j] = Fraction(e, sum(column)) * full.probs[j]
    left = FiniteSpace((f"x{i}" for i in range(left_size)), (sum(row) for row in joint))
    return Coupling(left, full, joint)


def _coupling(rng: random.Random) -> Coupling:
    p, q = rng.randint(2, 4), rng.randint(2, 4)
    entries = [[rng.randint(1, 9) for _ in range(q)] for _ in range(p)]
    total = sum(map(sum, entries))
    joint = [[Fraction(e, total) for e in row] for row in entries]
    left = FiniteSpace((f"x{i}" for i in range(p)), (sum(row) for row in joint))
    right = FiniteSpace((f"y{j}" for j in range(q)), (sum(row[j] for row in joint) for j in range(q)))
    return Coupling(left, right, joint)


def _project_op(phi, factor, full):
    def run():
        projected = markov.project_markov(phi, factor)  # raises if the identity fails
        if len(factor.selected) == len(factor.components) and projected != phi:
            raise CheckFailed("full selector did not return the operator")
        if not factor.selected and projected != MarkovOp.mean(phi.source, full):
            raise CheckFailed("empty selector did not return the mean operator")

    return run


def _incl_excl_op(dims, probs):
    def run():
        rep = markov.inclusion_exclusion_identity(dims, probs)
        if not rep["passed"]:
            raise CheckFailed(f"inclusion-exclusion failed on dims {dims}")

    return run


def _round_trip_op(couplings):
    def run():
        for c in couplings:
            phi = markov.markov_from_coupling(c)
            if markov.coupling_from_markov(phi) != c or markov.markov_from_coupling(markov.coupling_from_markov(phi)) != phi:
                raise CheckFailed("coupling/operator round trip changed the input")

    return run


def build_markov_identities(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for slot, dims in enumerate(MARKOV_SHAPES):
        components = tuple(_space(rng, size, f"c{i}_") for i, size in enumerate(dims))
        full = product_space(components)
        phi = markov.markov_from_coupling(_coupling_onto(rng, full, LEFT_SIZE))
        for mask in range(2 ** len(dims)):
            selected = tuple(i for i in range(len(dims)) if mask >> i & 1)
            factor = FactorStructure(components, selected)
            label = "".join(map(str, selected)) or "-"
            ops.append(Op(f"project:{slot}:{label}", _project_op(phi, factor, full)))
        ops.append(Op(f"incl-excl:{slot}", _incl_excl_op(list(dims), [list(c.probs) for c in components])))
        ops.append(Op(f"round-trip:{slot}", _round_trip_op([_coupling(rng) for _ in range(ROUND_TRIPS)])))
    return Workload("markov-identities", ops)


BUILDERS = {
    "suite": build_suite,
    "relation-rank": build_relation_rank,
    "markov-identities": build_markov_identities,
}


def build(name: str, seed: int, in_process: bool = False) -> Workload:
    """The workload's ops for this seed; `in_process` runs the suite through
    `cli.main` instead of a child process (the other workloads always run in
    process)."""
    if name == "suite":
        return build_suite(seed, in_process)
    return BUILDERS[name](seed)
