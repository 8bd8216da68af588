"""The shipped guarantees, one test per criterion.

Each test runs the corresponding battery criterion (the same code the CLI
`suite` subcommand runs), prints a single pass/fail line on the live
terminal, enforces the runtime budget, and asserts the criterion passed.
"""

import ast
import hashlib
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import circlespec
from circlespec.cli import main
from circlespec.errors import Caps
from circlespec import spectral, suite as battery

SEED = 0


def _bench_suite_sha256():
    """The sha256 of `circlespec suite --seed 0` stdout that bench/workloads.py
    pins, read off its assignment, so that both gates follow one value."""
    tree = ast.parse((Path(circlespec.__file__).parents[2] / "bench" / "workloads.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SUITE_SEED0_SHA256"]
    ]
    return ast.literal_eval(value)


SUITE_SHA256 = _bench_suite_sha256()


def run_criterion(fn, budget_seconds, label, capsys):
    t0 = time.perf_counter()
    report = fn(SEED, Caps())
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if report["passed"] and elapsed < budget_seconds else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {verdict} ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert report["passed"], report
    assert elapsed < budget_seconds, f"{label} took {elapsed:.2f}s"
    return report


def test_criterion_01_orbit_formula(capsys):
    run_criterion(battery.criterion_orbit_formula, 1, "1/10 orbit-formula", capsys)


def test_criterion_02_tensor_power_multiplicity(capsys):
    report = run_criterion(
        battery.criterion_tensor_power, 60, "2/10 tensor-power-multiplicity", capsys
    )
    assert [c["generic_value"] for c in report["cases"]] == [2, 6, 6, 90, 20]
    assert all(c["orbit_route_ran"] for c in report["cases"])


def test_criterion_03_fock_multiplicity_set(capsys):
    report = run_criterion(
        battery.criterion_fock_set, 120, "3/10 fock-multiplicity-set", capsys
    )
    assert report["report"]["set"] == [1, 3, 15, 105]
    assert report["report"]["levels_pairwise_singular"]


def test_criterion_04_cs_arithmetic(capsys):
    report = run_criterion(battery.criterion_cs_arithmetic, 1, "4/10 cs-arithmetic", capsys)
    assert [row["m"] for row in report["minimal_levels"]] == [2, 2, 5]


def test_criterion_05_translate_singularity(capsys):
    run_criterion(
        battery.criterion_translate_singularity, 10, "5/10 translate-singularity", capsys
    )


def test_criterion_06_multiplicity_amplification(capsys):
    report = run_criterion(
        battery.criterion_amplification, 60, "6/10 multiplicity-amplification", capsys
    )
    assert report["report"]["q"] == 2
    assert report["report"]["chosen_count"] >= 4
    assert len(report["report"]["witness_multisets"]) >= 4


def test_criterion_07_nonsimple_symmetric_square(capsys):
    report = run_criterion(
        battery.criterion_nonsimple, 1, "7/10 nonsimple-symmetric-square", capsys
    )
    assert report["report"]["witness"]["multiplicity"] == 2


def test_criterion_08_simplicity_monotone(capsys):
    report = run_criterion(
        battery.criterion_simplicity_monotone, 120, "8/10 simplicity-monotone", capsys
    )
    assert report["measures"] == 200
    assert report["violations"] == []


def test_simplicity_monotone_fails_on_an_engine_that_calls_every_level_simple(monkeypatch):
    # Monotonicity is a theorem, so such an engine has no violations; the
    # criterion must still notice that no level of any measure failed.
    monkeypatch.setattr(spectral, "_first_nonsimple_fiber", lambda *args: None)
    report = battery.criterion_simplicity_monotone(SEED, Caps())
    assert report["nonsimple_measures"] == 0 and report["violations"] == []
    assert report["passed"] is False


def test_criterion_09_markov_identities(capsys):
    report = run_criterion(
        battery.criterion_markov_identities, 30, "9/10 markov-identities", capsys
    )
    assert report["round_trips"] == 50
    assert report["dimension_vectors"] == 20
    assert report["failures"] == []


def test_criterion_10_suite_determinism(capsys):
    def run_suite_cli():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["suite", "--seed", str(SEED)])
        return code, buf.getvalue().encode("utf-8")

    t0 = time.perf_counter()
    code1, out1 = run_suite_cli()
    code2, out2 = run_suite_cli()
    elapsed = time.perf_counter() - t0
    ok = code1 == code2 == 0 and out1 == out2
    with capsys.disabled():
        print(f"\nACCEPTANCE 10/10 determinism: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert code1 == 0 and code2 == 0
    assert out1 == out2, "suite output is not byte-identical across equal seeds"
    assert hashlib.sha256(out1).hexdigest() == SUITE_SHA256


def test_suite_hash_does_not_depend_on_string_hashing():
    src = str(Path(circlespec.__file__).resolve().parents[1])
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "circlespec.cli", "suite", "--seed", str(SEED)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == SUITE_SHA256
