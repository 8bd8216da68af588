"""Tests of the benchmark's tracing and runner.

Run from the checkout root:  python3 -m pytest -q bench/tests
"""

import inspect
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from circlespec import cli, linalg, markov, measure, permgroup, spectral, suite  # noqa: E402
from circlespec.circle import CirclePoint  # noqa: E402
from circlespec.measure import AtomicMeasure  # noqa: E402
from circlespec.permgroup import PermSubgroup  # noqa: E402

ATOMS = [(0, (1,)), (6, (1,)), (4, (-1,)), (0, (2,))]  # (twelfths, exponents of g0)


def _measure(atoms=ATOMS):
    return AtomicMeasure(
        {CirclePoint(Fraction(r, 12), {g: e for g, e in enumerate(v) if e}): 1 for r, v in atoms}
    )


def _touch_every_layer(monkeypatch):
    mu = _measure()
    spectral.check_tensor_power(1, 2, 3)
    spectral.check_simplicity_levels(mu, 2)
    mu.convolve(mu)
    measure.relation_scan(mu, 2)
    markov.inclusion_exclusion_identity([2, 2])
    wl = workloads.build("markov-identities", 0)
    wl.ops[0].run()  # one projection: project_markov plus the coupling round trip inside it
    monkeypatch.setattr(suite, "CRITERIA", (("cs-arithmetic", suite.criterion_cs_arithmetic),))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["cs-criterion", "--k", "1", "--m", "2", "--n", "2"]) == 0
    suite.run_battery(0)


def test_every_layer_emits_spans(monkeypatch):
    recorder = spans.Recorder()
    with spans.traced(recorder):
        _touch_every_layer(monkeypatch)
    metrics = spans.layer_metrics(recorder)
    for layer in (spans.MUL_LAYER, *spans.LAYERS):
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] > 0, layer


def test_wrappers_keep_signatures_and_are_removed_afterwards():
    originals = {name: getattr(spectral, name) for name in ("fibers", "matrix_oracle", "multiplicity")}
    mul = CirclePoint.__mul__
    recorder = spans.Recorder()
    with spans.traced(recorder):
        for name, original in originals.items():
            wrapped = getattr(spectral, name)
            assert wrapped is not original
            assert inspect.signature(wrapped) == inspect.signature(original)
        # by-name imports in other modules are patched too
        assert suite.check_tensor_power is spectral.check_tensor_power
        assert cli.run_suite is suite.run_suite
        assert hasattr(cli.run_suite, "__wrapped__")
        assert spectral.fibers(_measure(), 2, tuple_cap=100)  # keyword call, as matrix_oracle makes
    for name, original in originals.items():
        assert getattr(spectral, name) is original
    assert CirclePoint.__mul__ is mul
    assert not hasattr(linalg.rank, "__wrapped__")
    assert not hasattr(permgroup.closure, "__wrapped__")


def test_counts_match_independent_values():
    mu, n, d = _measure(), 3, len(ATOMS)
    recorder = spans.Recorder()
    with spans.traced(recorder):
        G = PermSubgroup.symmetric(n)
        spectral.multiplicity(mu, n, G)
        spectral.matrix_oracle(mu, n, G)
    metrics = spans.layer_metrics(recorder)
    distinct_products = len(workloads._level_counts(ATOMS, n)[0])
    assert metrics["spectral.fibers.calls"] == 2
    assert metrics["spectral.fibers.tuples"] == 2 * d**n
    assert metrics["spectral.fibers.classes"] == 2 * distinct_products
    assert metrics["spectral.matrix_oracle.fibers"] == distinct_products
    assert metrics["linalg.rank.calls"] == distinct_products
    assert metrics["permgroup.closure.elements"] == 6


def test_spans_are_written_with_their_parents(tmp_path):
    recorder = spans.Recorder()
    with spans.traced(recorder):
        with recorder.span("op:t"):
            spectral.multiplicity(_measure(), 2, PermSubgroup.symmetric(2))
    recorder.write(tmp_path / "spans.jsonl")
    lines = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in lines] == [s.name for s in recorder.spans]
    by_name = {r["name"]: r for r in lines}
    assert lines[by_name["spectral.fibers"]["parent"]]["name"] == "spectral.multiplicity"
    assert lines[by_name["spectral.multiplicity"]["parent"]]["name"] == "op:t"
    assert by_name["op:t"]["parent"] is None


def _small(monkeypatch):
    monkeypatch.setattr(workloads, "RELATION_SLOTS", ((4, 3, 1, 0, 100), (5, 2, 2, 0, 100)))
    monkeypatch.setattr(workloads, "MARKOV_SHAPES", ((2, 2, 3),))


def _counts(name, seed):
    results = run.Results()
    workload = workloads.build(name, seed)
    recorder = spans.Recorder()
    with spans.traced(recorder):
        run.run_round(workload, results, recorder)
    assert not results.failures
    return {k: v for k, v in spans.layer_metrics(recorder).items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", ["relation-rank", "markov-identities"])
def test_counts_repeat_exactly(monkeypatch, name):
    _small(monkeypatch)
    first = _counts(name, 3)
    assert first == _counts(name, 3)
    assert any(v for v in first.values())


def test_seeded_inputs_repeat(monkeypatch):
    _small(monkeypatch)
    names = [op.name for op in workloads.build("relation-rank", 5).ops]
    assert names == [op.name for op in workloads.build("relation-rank", 5).ops]
    rng_a, rng_b = (workloads.random.Random(5) for _ in range(2))
    assert workloads.related_atoms(rng_a, 6, 2) == workloads.related_atoms(rng_b, 6, 2)


def test_failed_op_is_counted_and_the_round_goes_on():
    def broken():
        raise workloads.CheckFailed("wrong answer")

    wl = workloads.Workload("t", [workloads.Op("bad", broken), workloads.Op("good", lambda: None)])
    results = run.Results()
    run.run_round(wl, results)
    assert results.attempted == 2
    assert results.failures == ["bad: CheckFailed: wrong answer"]
    assert list(results.ops) == ["good"]


def test_tail_leaves_ten_ops_beyond():
    samples = [float(i) for i in range(100)]
    value, note = run.tail(samples, ops_per_round=50)
    assert value == 89.0 and "10 beyond" in note
    assert run.tail([1.0, 3.0], ops_per_round=1)[0] == 3.0


def test_traced_suite_stdout_matches_the_untraced_reference():
    workload = workloads.build("suite", 0, in_process=True)
    recorder = spans.Recorder()
    with spans.traced(recorder):
        workload.ops[0].run()
    assert workload.digests == [workloads.SUITE_SEED0_SHA256]
    metrics = spans.layer_metrics(recorder)
    assert metrics["suite.calls"] == 2 and metrics["cli.calls"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorder = spans.Recorder()
    per_layer = set(spans.layer_metrics(recorder)) | {"trace.overhead_s", "trace.spans"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
