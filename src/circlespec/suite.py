"""The acceptance battery: one callable per shipped guarantee.

Every criterion returns a JSON-ready dict with a "passed" flag and
deterministic content for a fixed seed: no wall clocks, no machine state,
so equal seeds give byte-identical serialized output.  The CLI `suite`
subcommand runs the battery and additionally re-runs the seeded criteria to
demonstrate that determinism inside a single process.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from operator import mul

from circlespec.circle import CirclePoint, GeneratorAllocator
from circlespec.errors import Caps, require_positive
from circlespec.markov import (
    Coupling,
    FactorStructure,
    FiniteSpace,
    MarkovOp,
    coupling_from_markov,
    dimension_identity,
    inclusion_exclusion_identity,
    markov_from_coupling,
    product_space,
    project_markov,
)
from circlespec.measure import AtomicMeasure, generic_measure
from circlespec.permgroup import Perm, PermSubgroup, orbit_count_free
from circlespec.spectral import (
    check_simplicity_levels,
    check_tensor_power,
    check_translate_singularity,
    cs_criterion,
    fock_multiplicity_set,
    girsanov_step,
    minimal_m_for_cs,
    nonsimple_counterexample,
    paired_relation_measure,
)


# Generator sets, as disjoint-cycle lists, spanning the subgroup zoo of S(3)
# and S(4): trivial, cyclic, Klein, dihedral, alternating, full, embedded.
SUBGROUP_CATALOGUE = [
    (3, ()),
    (3, (((0, 1),),)),
    (3, (((0, 1, 2),),)),
    (3, (((0, 1),), ((0, 1, 2),))),
    (4, ()),
    (4, (((0, 1),),)),
    (4, (((0, 1), (2, 3)),)),
    (4, (((0, 1, 2),),)),
    (4, (((0, 1, 2, 3),),)),
    (4, (((0, 1),), ((2, 3),))),
    (4, (((0, 1), (2, 3)), ((0, 2), (1, 3)))),
    (4, (((0, 1, 2, 3),), ((0, 2),))),
    (4, (((0, 1, 2),), ((1, 2, 3),))),
    (4, (((0, 1),), ((0, 1, 2, 3),))),
    (4, (((0, 1),), ((0, 1, 2),))),
]


def criterion_orbit_formula(seed, caps) -> dict:
    """Index formula vs direct orbit enumeration across the subgroup zoo."""
    rows = []
    for n, gen_cycles in SUBGROUP_CATALOGUE:
        G = PermSubgroup(n, [reduce(mul, (Perm.from_cycle(n, c) for c in cs)) for cs in gen_cycles])
        orbits = orbit_count_free(G, caps.tuples)
        rows.append({**G.describe(), "orbits": orbits, "formula": math.factorial(n) // G.order})
    return {"passed": all(r["orbits"] == r["formula"] for r in rows), "subgroups": rows}


def criterion_tensor_power(seed, caps) -> dict:
    """Multiplicity of tensor powers of convolution powers, three routes."""
    expected = {(1, 2): 2, (1, 3): 6, (2, 2): 6, (2, 3): 90, (3, 2): 20}
    rows = []
    for (k, m), want in expected.items():
        rep = check_tensor_power(k, m, m * k + 2, caps)
        rows.append(
            {
                "conv_power": k,
                "tensor_power": m,
                "atoms": m * k + 2,
                "generic_value": rep["generic_value"],
                "expected": want,
                "orbit_route_ran": rep["orbit_route"]["ran"],
                "matrix_route_ran": rep["matrix_route"]["ran"],
                "passed": rep["passed"] and rep["generic_value"] == want,
            }
        )
    return {"passed": all(r["passed"] for r in rows), "cases": rows}


def criterion_fock_set(seed, caps) -> dict:
    """Symmetric-power multiplicities 1, 3, 15, 105 on disjoint levels."""
    rep = fock_multiplicity_set(2, 4, 8, caps.tuples)
    want = [1, 3, 15, 105]
    ok = rep["passed"] and rep["set"] == want and rep["levels_pairwise_singular"]
    return {"passed": ok, "expected": want, "report": rep}


def criterion_cs_arithmetic(seed, caps) -> dict:
    """The big-integer criterion and the minimal level sequence, with an
    independent pure-integer evaluation of each minimal m."""
    base = cs_criterion(1, 2, 2)
    expected_m = {1: 2, 2: 2, 3: 5}
    rows = []
    for k, want in expected_m.items():
        rep = minimal_m_for_cs(k)
        independent = next(
            (
                m
                for m in range(1, 65)
                if math.factorial(m) ** (k + 1) * math.factorial(k) ** m
                > math.factorial(m * k)
            ),
            None,
        )
        row_ok = rep["m"] == want == independent and (k != 2 or rep["sequence"][1] == "4/3")
        rows.append(
            {
                "conv_power": k,
                "m": rep["m"],
                "expected": want,
                "independent": independent,
                "sequence": rep["sequence"],
                "passed": row_ok,
            }
        )
    passed = base["holds"] and all(r["passed"] for r in rows)
    return {"passed": passed, "base_criterion": base, "minimal_levels": rows}


def criterion_translate_singularity(seed, caps) -> dict:
    """sigma^{*n} vs translated sigma^{*m} over all small (n, m, shift)."""
    alloc = GeneratorAllocator()
    sigma = generic_measure(4, alloc)
    fresh = alloc.fresh_point()
    identity = CirclePoint.identity()
    rows = []
    for n in range(1, 4):
        for m in range(1, 4):
            for shift, label in ((fresh, "fresh"), (identity, "identity")):
                rep = check_translate_singularity(sigma, n, m, shift, caps.tuples)
                rows.append(
                    {
                        "n": n,
                        "m": m,
                        "shift": label,
                        "singular": rep["singular"],
                        "expected": not (n == m and label == "identity"),
                    }
                )
    return {"passed": all(r["singular"] == r["expected"] for r in rows), "cases": rows}


def criterion_amplification(seed, caps) -> dict:
    """Doubling the level squares the designed multiplicity: 2 -> at least 4."""
    rep = girsanov_step(paired_relation_measure(), 2, caps.tuples)
    ok = (
        rep["q"] == 2
        and rep["satisfied"]
        and rep["chosen_count"] >= 4
        and len(rep["witness_multisets"]) >= 4
        and rep["level_max"] == {"1": 1, "2": 2, "4": 4}
    )
    return {"passed": ok, "report": rep}


def criterion_nonsimple(seed, caps) -> dict:
    """The translate construction breaks symmetric-square simplicity."""
    alloc = GeneratorAllocator()
    sigma = generic_measure(2, alloc)
    rep = nonsimple_counterexample(sigma, alloc.fresh_point(), caps.tuples)
    ok = (
        rep["found"]
        and rep["translate_not_singular"]
        and not rep["simple_level_2"]
        and rep["witness"] is not None
        and rep["witness"]["multiplicity"] == 2
    )
    return {"passed": ok, "report": rep}


def random_relation_measure(rng: random.Random, allocator: GeneratorAllocator) -> AtomicMeasure:
    """Up to 6 atoms: a generic core plus 0-2 designed product relations,
    optionally twisted by a rational rotation."""
    atoms = [allocator.fresh_point() for _ in range(rng.randint(1, 4))]
    rationals = (
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
    )
    for _ in range(rng.randint(0, 2)):
        if len(atoms) < 2 or len(atoms) >= 6:
            break
        chosen = rng.sample(atoms, rng.randint(2, min(3, len(atoms))))
        point = CirclePoint(rng.choice(rationals))
        for q in chosen:
            point = point * (q if rng.choice((True, False)) else q.inverse())
        if all(point != p for p in atoms):
            atoms.append(point)
    return AtomicMeasure({p: Fraction(rng.randint(1, 4)) for p in atoms})


def criterion_simplicity_monotone(seed, caps) -> dict:
    """200 randomized measures: simplicity never reappears above a failure.  Some
    level must fail: an engine that calls every level simple is monotone too."""
    rng = random.Random(seed)
    allocator = GeneratorAllocator()
    checked = 0
    nonsimple_somewhere = 0
    violations = []
    for index in range(200):
        mu = random_relation_measure(rng, allocator)
        rep = check_simplicity_levels(mu, 4, caps.tuples)
        checked += 1
        if not all(rep["levels"].values()):
            nonsimple_somewhere += 1
        if not rep["monotone"]:
            violations.append({"index": index, "report": rep})
    return {
        "passed": not violations and nonsimple_somewhere > 0,
        "measures": checked,
        "nonsimple_measures": nonsimple_somewhere,
        "violations": violations,
    }


def _random_space(rng: random.Random, max_size: int, prefix: str) -> FiniteSpace:
    n = rng.randint(1, max_size)
    weights = [rng.randint(1, 5) for _ in range(n)]
    total = sum(weights)
    return FiniteSpace(
        (f"{prefix}{i}" for i in range(n)), (Fraction(w, total) for w in weights)
    )


def _random_coupling(rng: random.Random, max_size: int = 4) -> Coupling:
    p, q = rng.randint(1, max_size), rng.randint(1, max_size)
    entries = [[rng.randint(1, 9) for _ in range(q)] for _ in range(p)]
    total = sum(map(sum, entries))
    joint = [[Fraction(e, total) for e in row] for row in entries]
    left = FiniteSpace((f"x{i}" for i in range(p)), (sum(row) for row in joint))
    right = FiniteSpace(
        (f"y{j}" for j in range(q)), (sum(row[j] for row in joint) for j in range(q))
    )
    return Coupling(left, right, joint)


def _random_coupling_onto_product(rng: random.Random, components, left_size: int) -> Coupling:
    """Random coupling whose right marginal is exactly the product measure."""
    full = product_space(components)
    entries = [[rng.randint(1, 9) for _ in range(full.size)] for _ in range(left_size)]
    joint = [[Fraction(0)] * full.size for _ in range(left_size)]
    for j in range(full.size):
        col_total = sum(entries[i][j] for i in range(left_size))
        for i in range(left_size):
            joint[i][j] = Fraction(entries[i][j], col_total) * full.probs[j]
    left = FiniteSpace((f"x{i}" for i in range(left_size)), (sum(row) for row in joint))
    return Coupling(left, full, joint)


def check_round_trips(rng: random.Random, count: int) -> list[dict]:
    """The round trips of `count` random couplings that changed their input."""
    require_positive(count=count)
    failures = []
    for index in range(count):
        c = _random_coupling(rng)
        stage = "coupling-round-trip"
        try:  # a derived operator failing its validation fails the stage
            phi = markov_from_coupling(c)
            if coupling_from_markov(phi) != c:
                failures.append({"stage": stage, "index": index})
            stage = "markov-round-trip"
            if markov_from_coupling(coupling_from_markov(phi)) != phi:
                failures.append({"stage": stage, "index": index})
        except ValueError as exc:
            failures.append({"stage": stage, "index": index, "error": str(exc)})
    return failures


def check_projections(rng: random.Random, n: int, count: int) -> tuple[int, list[dict]]:
    """Project `count` random operators into n-component products onto every
    selector: (projections whose two routes agreed, failures)."""
    require_positive(count=count)
    cases, failures = 0, []
    for trial in range(count):
        components = tuple(_random_space(rng, 3, f"c{i}_") for i in range(n))
        coupling = _random_coupling_onto_product(rng, components, rng.randint(1, 3))
        failure = {"stage": "projection-identity", "n": n, "trial": trial}
        try:  # a derived operator failing its validation fails the stage, as the identity does
            phi = markov_from_coupling(coupling)
        except ValueError as exc:
            failures.append({**failure, "selected": None, "error": str(exc)})
            continue
        for mask in range(2**n):
            selected = tuple(i for i in range(n) if mask >> i & 1)
            try:
                projected = project_markov(phi, FactorStructure(components, selected))
            except (RuntimeError, ValueError) as exc:
                failures.append({**failure, "selected": list(selected), "error": str(exc)})
                continue
            cases += 1
            if len(selected) == n and projected != phi:
                failures.append({"stage": "full-selector", "n": n, "trial": trial})
            if not selected and projected != MarkovOp.mean(phi.source, phi.target):
                failures.append({"stage": "empty-selector", "n": n, "trial": trial})
    return cases, failures


def criterion_markov_identities(seed, caps) -> dict:
    """Coupling round trips, the projection-extension identity over every
    selector, inclusion-exclusion matrices, and the dimension identity."""
    rng = random.Random(seed + 1)
    round_trips = 50
    failures = check_round_trips(rng, round_trips)
    projections = [check_projections(rng, n, 3) for n in range(1, 4)]
    projection_cases = sum(cases for cases, _ in projections)
    failures += [failure for _, found in projections for failure in found]

    incl_excl = []
    for n in (2, 3, 4):
        dims = [rng.randint(2, 3) for _ in range(n)]
        probs = []
        for d in dims:
            weights = [rng.randint(1, 5) for _ in range(d)]
            probs.append([Fraction(w, sum(weights)) for w in weights])
        rep = inclusion_exclusion_identity(dims, probs, caps.matrix)
        incl_excl.append({"dims": dims, "passed": rep["passed"]})
        if not rep["passed"]:
            failures.append({"stage": "inclusion-exclusion", "dims": dims})

    dim_vectors = 20
    for _ in range(dim_vectors):
        dims = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
        if not dimension_identity(dims)["dimension_identity"]:
            failures.append({"stage": "dimension-identity", "dims": dims})

    return {
        "passed": not failures,
        "round_trips": round_trips,
        "projection_cases": projection_cases,
        "inclusion_exclusion": incl_excl,
        "dimension_vectors": dim_vectors,
        "failures": failures,
    }


CRITERIA = (
    ("orbit-formula", criterion_orbit_formula),
    ("tensor-power-multiplicity", criterion_tensor_power),
    ("fock-multiplicity-set", criterion_fock_set),
    ("cs-arithmetic", criterion_cs_arithmetic),
    ("translate-singularity", criterion_translate_singularity),
    ("multiplicity-amplification", criterion_amplification),
    ("nonsimple-symmetric-square", criterion_nonsimple),
    ("simplicity-monotone", criterion_simplicity_monotone),
    ("markov-identities", criterion_markov_identities),
)


def run_battery(seed: int = 0, caps: Caps = Caps()) -> dict:
    criteria = {}
    for name, fn in CRITERIA:
        criteria[name] = fn(seed, caps)
    return {
        "seed": seed,
        "criteria": criteria,
        "passed": all(r["passed"] for r in criteria.values()),
    }


def run_suite(seed: int = 0, caps: Caps = Caps()) -> dict:
    """Battery plus an in-process determinism check: the seeded (randomized)
    criteria are re-run and must reproduce identical reports."""
    battery = run_battery(seed, caps)
    seeded = ("simplicity-monotone", "markov-identities")
    reproduced = all(
        dict(CRITERIA)[name](seed, caps) == battery["criteria"][name]
        for name in seeded
    )
    battery["criteria"]["determinism"] = {
        "passed": reproduced,
        "rerun_criteria": list(seeded),
    }
    battery["passed"] = all(r["passed"] for r in battery["criteria"].values())
    return battery
