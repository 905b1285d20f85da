"""Pipeline benchmark of the ddnnf toolkit.

    python3 pipeline_bench/run.py --workload mutex_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the command fails when there is none. One process runs
one workload, single-threaded, as a closed loop with one caller: set-up, then
whole passes over the workload's instances, in a seeded order, until
``--seconds`` of passes have run. Every operation is checked outside its
timing against closed forms computed apart from the program; ``gc.collect()``
runs between operations, also outside the timing.

Set-up time is measured in fresh interpreters (this script with
``--setup-only``), a few times spread over the run, so that imports count and
one moment's machine speed does not decide it. Every reported time is scaled
to a fixed machine speed by a reference loop run next to it (host_speed.py);
the unscaled figures go to standard error.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run also
writes its spans to ``pipeline_bench/results/``. See README.md.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

from host_speed import REFERENCE_S, reference_loop_s

SCRIPT = Path(__file__).resolve()
BENCH_DIR = SCRIPT.parent
SOURCE = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("mutex_pipeline", "chain_compile", "query_circuits")
SETUP_TIMEOUT_S = 120

# Spans the operations record; each gives the per-layer time metric "<span>_s",
# seconds per pass summed over the calls.
SPANS = (
    "formula.parse",
    "formula.tseitin",
    "cnf.parse_dimacs",
    "compiler.compile",
    "compiler.parse_nnf",
    "pruning.prune",
    "counting.count",
    "counting.wmc",
    "counting.wmc_exact",
    "circuit.write_nnf",
)
COUNT_METRICS = {
    "formula.clauses": "count",
    "formula.gate_vars": "count",
    "compiler.arena_nodes": "count",
    "compiler.reachable_nodes": "count",
    "pruning.size_after_p": "ops",
    "pruning.artifact_roots": "count",
    "pruning.artifacts_internal": "count",
    "circuit.nnf_bytes": "bytes",
}
ALLOC_MODULES = ("compiler", "pruning", "counting")


def add_source_path() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    if not (SOURCE / "ddnnf" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SOURCE))
    return True


def rate(times: list[float]) -> float:
    return len(times) / sum(times) if times else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def fresh_setup_s(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being built.

    The child prints ``time.monotonic()`` once its inputs are built; that
    clock is the same in every process, so neither the child's exit nor the
    parent's polling while it waits enters the time."""
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(seed), "--setup-only"],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    return float(child.stdout.split()[-1]) - start


def scaled_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, unscaled) seconds of one fresh-interpreter set-up."""
    before = reference_loop_s()
    raw = fresh_setup_s(workload, seed)
    scale = REFERENCE_S / ((before + reference_loop_s()) / 2)
    return raw * scale, raw


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import AllocTracer, SpanTracer, Untraced, span_cost_s
    from workloads import check, layer_counts, sizes

    jobs = workload.setup(seed)
    tracer = SpanTracer() if trace else Untraced()
    order = random.Random(seed)
    setups: list[tuple[float, float]] = []
    setup_samples = 0 if trace else workload.setup_samples
    op_times: list[float] = []  # scaled
    raw_op_times: list[float] = []
    op_scale: dict[int, float] = {}
    references: list[float] = []
    counts: dict[str, int] = defaultdict(int)
    traced_op_s = 0.0
    compiled_size = pruned_size = 0
    attempted = failed = mismatched = passes = 0
    reference = reference_loop_s()
    loop_start = time.perf_counter()
    paused = 0.0  # time spent timing set-ups, which does not count toward --seconds
    while passes == 0 or time.perf_counter() - loop_start - paused < seconds:
        if len(setups) < setup_samples:
            due = len(setups) * seconds / setup_samples
            if time.perf_counter() - loop_start - paused >= due:
                start = time.perf_counter()
                setups.append(scaled_setup_s(workload.name, seed))
                paused += time.perf_counter() - start
        for job in order.sample(jobs, len(jobs)):
            gc.collect()
            attempted += 1
            tracer.op = attempted
            start = time.perf_counter()
            try:
                out = workload.op(job, tracer)
            except Exception:
                out = None
                print(f"{job.instance.name}: operation raised", file=sys.stderr)
                traceback.print_exc(limit=3, file=sys.stderr)
            elapsed = time.perf_counter() - start
            after = reference_loop_s()
            references.append(after)
            scale = op_scale[attempted] = REFERENCE_S / ((reference + after) / 2)
            reference = after
            if out is None:
                failed += 1
                continue
            problems = check(job, out)
            if problems:
                failed += 1
                mismatched += 1
                print(f"{job.instance.name}: {'; '.join(problems)}", file=sys.stderr)
                continue
            op_times.append(elapsed * scale)
            raw_op_times.append(elapsed)
            if passes == 0:
                compiled, pruned = sizes(out)
                compiled_size += compiled
                pruned_size += pruned
            if trace:
                for name, value in layer_counts(out).items():
                    counts[name] += value
                traced_op_s += elapsed * scale
            del out
        passes += 1
    while len(setups) < setup_samples:
        setups.append(scaled_setup_s(workload.name, seed))

    result = {"correct": mismatched == 0, "attempted": attempted, "failed": failed}
    if not trace:
        print(
            f"unscaled: setup_s={statistics.median(raw for _, raw in setups)!r} "
            f"ops_per_s={rate(raw_op_times)!r} op_p50_s={median(raw_op_times)!r} "
            f"reference_loop_s={median(references)!r}",
            file=sys.stderr,
        )
        result["metrics"] = {
            "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
            "ops_per_s": (rate(op_times), "1/s"),
            "op_p50_s": (median(op_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "compiled_size": (compiled_size, "ops"),
            "pruned_size": (pruned_size, "ops"),
        }
        return result

    span_time: dict[str, float] = defaultdict(float)
    for name, op, start, end in tracer.spans:
        span_time[name] += (end - start) * op_scale[op]
    metrics = {f"{span}_s": (span_time[span] / passes, "s") for span in SPANS}
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (counts[name] / passes, unit)
    metrics["op.unattributed_s"] = ((traced_op_s - sum(span_time.values())) / passes, "s")
    metrics["host.reference_loop_s"] = (median(references), "s")

    # One more pass, untimed, under tracemalloc: the per-module allocation peaks.
    alloc = AllocTracer()
    tracemalloc.start()
    try:
        for job in jobs:
            gc.collect()
            try:
                workload.op(job, alloc)
            except Exception:
                pass  # already counted as failed in the timed passes
    finally:
        tracemalloc.stop()
    for module in ALLOC_MODULES:
        metrics[f"{module}.peak_alloc_mb"] = (alloc.peaks[module] / 2**20, "MB")

    overhead = 100 * span_cost_s() * len(tracer.spans) / traced_op_s if traced_op_s else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{workload.name}-seed{seed}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "passes": passes,
                "spans": [[n, op, s - loop_start, e - loop_start] for n, op, s, e in tracer.spans],
            }
        )
        + "\n"
    )
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Pipeline benchmark of the ddnnf toolkit.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="build the inputs and exit (times set-up)"
    )
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seconds is None or args.seconds <= 0):
        parser.error("--seconds must be given and positive")
    if not add_source_path():
        print(f"no ddnnf package under {SOURCE}; run from a source checkout", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed)
        print(repr(time.monotonic()))
        return 0
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
