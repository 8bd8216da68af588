"""The benchmark's traced runs, end to end, on a fresh copy of the checkout.

`bench/run.py --trace 1` wraps every layer that `bench/spans.py` lists by
its module and name, and its counters read the shape of what those layers
return.  A change that renames or drops such a function, or changes the
shape of a product, breaks the traced run before any op runs, although
every untraced test still passes.  Each workload's traced run is started
here as the benchmark starts it: from the root of a copy holding only
`src/`, `bench/` and `BENCHMARK.json`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_build", ".pytest_cache")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_every_op(workload, checkout):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
