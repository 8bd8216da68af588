"""Benchmark for circlespec: end-to-end numbers, or per-layer numbers from a
traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The library is imported from the
checkout's `src/` directory, never from an installed copy; without it the
benchmark exits with code 2 and prints no result.  Workloads and the reason
for each are in `workloads.py`; metric names, units and bounds are in
`BENCHMARK.json` at the checkout root.

`--trace 0`: one client runs the workload's fixed list of ops in a closed
loop, in rounds, for at least two rounds and then as long as another round
fits in `--seconds`.  It reports the median round time (`wall_s`), the median
op latency (`op_p50_s`), the latency at the highest percentile that leaves
at least ten ops beyond it (`op_tail_s`), the peak RSS of the process that
ran the ops (`peak_rss_mib`), and the median of several separate set-ups
(`setup_s`: interpreter start, `import circlespec` and building the inputs).
Every time is in reference seconds (see `hostspeed.py`): wall time adjusted
by the host speed sampled during it, so that other tenants' load on a shared
host does not show as a change of the program.  The raw wall times are
printed beside them.  An op that raises or fails its output check is counted
in `failed` and named; the run goes on and every metric is still printed.

`--trace 1`: one untraced round and then one traced round in this process;
it reports per-layer calls, self time (raw wall seconds) and work counts
from the traced round, and the traced minus the untraced round time, in
reference seconds, as the tracing overhead.  The
spans are kept in memory and written at the end to
`.bench_build/spans-<workload>-seed<seed>.jsonl`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every op passed its checks, 1 when some did not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 2
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
SETUP_REPEATS = 9
TIME_LIMIT_S = 150  # stop starting rounds after this, so a run ends well within 180 s

SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)


class Results:
    """Everything one run measured, as perf_counter intervals, failures included."""

    def __init__(self):
        self.rounds: list[tuple[float, float]] = []
        self.ops: dict[str, list[tuple[float, float]]] = {}
        self.failures: list[str] = []
        self.child_rss_kib: list[int] = []

    @property
    def attempted(self) -> int:
        return len(self.failures) + sum(map(len, self.ops.values()))


def run_round(workload, results: Results, recorder=None) -> None:
    r0 = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            if recorder is None:
                usage = op.run()
            else:
                with recorder.span(f"op:{op.name}"):
                    usage = op.run()
        except Exception as exc:  # an op failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            results.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        results.ops.setdefault(op.name, []).append((t0, time.perf_counter()))
        if usage is not None:
            results.child_rss_kib.append(usage.ru_maxrss)
    results.rounds.append((r0, time.perf_counter()))


def timed_run(workload, seconds: float) -> Results:
    results = Results()
    start = time.perf_counter()
    while True:
        run_round(workload, results)
        end = results.rounds[-1][1]
        elapsed, last = end - start, end - results.rounds[-1][0]
        if len(results.rounds) >= MIN_ROUNDS and (elapsed + last > seconds or elapsed > TIME_LIMIT_S):
            return results


def tail(samples: list[float], ops_per_round: int) -> tuple[float, str]:
    """Latency at a fixed percentile chosen so that a run of MIN_ROUNDS rounds
    leaves TAIL_BEYOND ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} ops, too few to leave {TAIL_BEYOND} beyond a percentile"
    beyond = max(TAIL_BEYOND, math.floor(n * TAIL_BEYOND / (MIN_ROUNDS * ops_per_round)))
    beyond = min(beyond, n - 1)
    return ordered[n - 1 - beyond], f"p{100 * (n - beyond) / n:.1f} of {n} ops, {beyond} beyond"


def setup_intervals(name: str, seed: int) -> list[tuple[float, float]]:
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)]
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        intervals.append((t0, time.perf_counter()))
    return intervals


def same_call_spread(results: Results, sampler) -> dict:
    """How much one op's time moves between rounds of the same run, raw and
    adjusted, and the round times beside the speeds sampled during them."""

    def worst(adjust):
        spreads = {}
        for name, intervals in results.ops.items():
            times = [adjust(t0, t1) for t0, t1 in intervals]
            if len(times) >= 2 and statistics.median(times) > 0:
                spreads[name] = (max(times) - min(times)) / statistics.median(times)
        if not spreads:
            return {}
        op = max(spreads, key=spreads.get)
        return {"median_rel_range": round(statistics.median(spreads.values()), 4), "worst_op": op,
                "worst_rel_range": round(spreads[op], 4)}

    return {
        "raw": worst(lambda t0, t1: t1 - t0),
        "adjusted": worst(sampler.adjusted),
        "round_raw_s": [round(t1 - t0, 4) for t0, t1 in results.rounds],
        "round_adjusted_s": [round(sampler.adjusted(t0, t1), 4) for t0, t1 in results.rounds],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Results, dict, dict]:
    with hostspeed.Sampler() as sampler:
        setups = setup_intervals(workload.name, seed)
        results = timed_run(workload, seconds)
    intervals = [iv for ivs in results.ops.values() for iv in ivs]
    raw = {
        "wall_s": statistics.median(t1 - t0 for t0, t1 in results.rounds),
        "op_p50_s": statistics.median(t1 - t0 for t0, t1 in intervals) if intervals else 0.0,
        "setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
    }
    latencies = [sampler.adjusted(*iv) for iv in intervals]
    tail_s, tail_note = tail(latencies, len(workload.ops)) if latencies else (0.0, "no op passed")
    if results.child_rss_kib:
        rss_kib = max(results.child_rss_kib)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(sampler.adjusted(*iv) for iv in results.rounds),
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_tail_s": tail_s,
        "peak_rss_mib": rss_kib / 1024,
        "setup_s": statistics.median(sampler.adjusted(*iv) for iv in setups),
    }
    notes = {
        "wall_s": f"median of {len(results.rounds)} rounds of {len(workload.ops)} ops; raw {raw['wall_s']:.4f} s",
        "op_p50_s": f"{len(latencies)} ops; raw {raw['op_p50_s']:.4f} s",
        "op_tail_s": tail_note,
        "peak_rss_mib": "child processes" if results.child_rss_kib else "this process",
        "setup_s": f"median of {SETUP_REPEATS} set-ups; raw {raw['setup_s']:.4f} s",
    }
    return metrics, results, notes, same_call_spread(results, sampler)


def traced(workload, seed: int) -> tuple[dict, Results, dict, dict]:
    import spans  # imports circlespec, so only after main() has put src/ on the path

    results = Results()
    recorder = spans.Recorder()

    def keep_out_of_spans(seconds):
        recorder.stack[-1].covered += seconds

    with hostspeed.Sampler(on_sample=keep_out_of_spans) as sampler:
        run_round(workload, results)
        with spans.traced(recorder):
            run_round(workload, results, recorder)
    metrics = spans.layer_metrics(recorder)
    untraced_s, traced_s = (sampler.adjusted(*iv) for iv in results.rounds)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(recorder.spans)
    if len(set(workload.digests)) > 1:
        results.failures.append("suite: traced stdout differs from untraced stdout")
    path = ROOT / ".bench_build" / f"spans-{workload.name}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    recorder.write(path)
    notes = {
        "trace.overhead_s": f"traced {traced_s:.4f} s - untraced {untraced_s:.4f} s",
        "trace.spans": f"written to {path.relative_to(ROOT)}",
    }
    return metrics, results, notes, same_call_spread(results, sampler)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circlespec" / "__init__.py").is_file():
        print(f"no circlespec sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import circlespec

    if Path(circlespec.__file__).resolve().parent != SRC / "circlespec":
        print(f"imported circlespec from {circlespec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    hostspeed.pin_to_one_cpu()
    workload = workloads.build(args.workload, args.seed, in_process=bool(args.trace))
    if args.trace:
        metrics, results, notes, spread = traced(workload, args.seed)
        wanted = spec["per_layer"]
    else:
        metrics, results, notes, spread = end_to_end(workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    attempted, failed = results.attempted, len(results.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for m in wanted:
        note = notes.get(m["name"])
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}" + (f" ({note})" if note else ""))
    print(f"fail_frac {failed / attempted} ({failed} of {attempted} ops)")
    for failure in results.failures:
        print(f"failed: {failure}")
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": commit(),
        "seed": args.seed,
        "same_call_spread": spread,
    }
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
