"""Benchmark entry point for sensefuse.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs one workload in this process, single-threaded, against the program in
``src/`` of the checkout that holds this file.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, measured
with no tracing installed.  With ``--trace 1`` the run is split in two
halves, untraced then traced, and the metrics are the per-layer ones, each a
mean per op of the traced half, plus the tracing overhead between the halves.

The line before the result, starting ``provenance:``, records the machine,
versions, commit, pinned config and seed.  A copy of every result, and the
spans of the latest traced run of each workload, go to ``.perfbench_out/``.
See ``perfbench/README.md``.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import check_repeats  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "log_bytes_per_request": "B",
}

# Per-layer metrics, all per op of the traced half.  Names ending in .calls,
# .s and .self_s come from the tracer's spans; the rest are its counts.
PER_LAYER_NAMES = (
    "scenario.generate_frames.calls",
    "scenario.generate_frames.s",
    "scenario.detections",
    "scenario.frames",
    "measurement.world_covariance.calls",
    "measurement.world_covariance.s",
    "measurement.build_detection.calls",
    "measurement.build_detection.s",
    "fusion.precompute_distances.calls",
    "fusion.precompute_distances.s",
    "fusion.evaluate_distances.calls",
    "fusion.evaluate_distances.s",
    "fusion.process_frame.calls",
    "fusion.process_frame.s",
    "fusion.gate_detections.calls",
    "callflow.run_sensing_task.s",
    "metrics.result_from_counts.calls",
    "metrics.result_from_counts.s",
    "metrics.aggregate.s",
    "harness.write_csv.s",
    "sdsf_store.open.s",
    "sdsf_store.records_loaded",
    "sdsf_store.log_bytes_read",
    "sdsf_store.query_availability.calls",
    "sdsf_store.query_availability.s",
    "sdsf_store.fetch.calls",
    "sdsf_store.fetch.s",
    "sdsf_store.fetch.records_returned",
    "sdsf_store.store.calls",
    "sdsf_store.store.s",
    "sdsf_store.bytes_appended",
    "sdsf_store.dedup_hits",
    "callflow.run_call_flow.s",
    "callflow.messages",
    "callflow.SensingEntity.handle.self_s",
    "callflow.SdsfFrontend.handle.self_s",
    "callflow.SensingFunction.handle.self_s",
    "callflow.PolicyControl.handle.self_s",
    "callflow.write_trace.s",
    "geometry.min_distance_sq_many.calls",
    "geometry.in_dilated_map.calls",
)

# Counts that must repeat exactly across repeats of one seed.
REPEAT_COUNTS = (
    "scenario.detections",
    "measurement.world_covariance.calls",
    "fusion.evaluate_distances.calls",
    "sdsf_store.records_loaded",
    "sdsf_store.bytes_appended",
)


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s/op"
    if name.endswith(("bytes_appended", "bytes_read")):
        return "B/op"
    return "count/op"


PER_LAYER_UNITS = {
    **{name: per_layer_unit(name) for name in PER_LAYER_NAMES},
    "error_rate": "ratio",
    "trace.overhead_pct": "%",
}


class SetupError(Exception):
    """The checkout does not hold a program the benchmark can run."""


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "sensefuse" / "__init__.py").is_file():
        raise SetupError(f"no sensefuse sources under {src}")
    sys.path.insert(0, str(src))
    import sensefuse

    if Path(sensefuse.__file__).resolve().parent != (src / "sensefuse").resolve():
        raise SetupError(f"imported sensefuse from {sensefuse.__file__}, not from {src}")


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no such percentile exists; the maximum is
    returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_phase(workload, seconds: float, scope, min_units: int) -> list:
    """Units until ``seconds`` have passed and at least ``min_units`` ran.

    No unit starts when more than half of one (judged by the last) would run
    past ``seconds``, so a run ends within half a unit of its time.
    """
    units = []
    start = perf_counter()
    last = 0.0
    while len(units) < min_units or perf_counter() - start + last / 2 < seconds:
        unit_start = perf_counter()
        before = scope.snapshot()
        unit = workload.run_unit(scope)
        after = scope.snapshot()
        unit.counts = {k: after.get(k, 0) - before.get(k, 0) for k in REPEAT_COUNTS}
        units.append(unit)
        last = perf_counter() - unit_start
    return units


def repeat_problems(units: list) -> tuple[list[str], int]:
    """Mismatches among units of one repeat key, and the ops they cover."""
    problems: list[str] = []
    failed = 0
    groups: dict[str, list] = {}
    for unit in units:
        groups.setdefault(unit.repeat_key, []).append(unit)
    for key, group in groups.items():
        found = check_repeats(f"{key}: output", [u.output for u in group])
        found += check_repeats(
            f"{key}: log_bytes_per_request", [sum(u.log_bytes) for u in group]
        )
        for name in REPEAT_COUNTS:
            found += check_repeats(f"{key}: {name}", [u.counts.get(name, 0) for u in group])
        if found:
            problems += found
            failed += sum(len(u.op_s) for u in group[1:])
    return problems, failed


def end_to_end(units: list, setup_samples: list[float]) -> tuple[dict, dict]:
    op_s = [s for u in units for s in u.op_s]
    log_bytes = [b for u in units for b in u.log_bytes]
    pct, tail_s = tail(op_s)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(u.wall_s for u in units),
        "ops_per_s": len(op_s) / sum(u.wall_s for u in units),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "log_bytes_per_request": sum(log_bytes) / len(log_bytes),
    }
    detail = {"op_tail_percentile": pct, "op_samples": len(op_s), "units": len(units)}
    return values, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink the config to a smoke-test size"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        load_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    import numpy

    from perfbench.workloads import WORKLOADS, Scope

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{label}-{os.getpid()}"
    workdir.mkdir()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            setup_samples.append(perf_counter() - start)

        tracer = None
        if args.trace:
            # The untraced half is the reference for the tracing overhead.
            untraced = run_phase(workload, args.seconds / 2, Scope(), 1)
            tracer = Tracer()
            tracer.install()
            try:
                units = run_phase(workload, args.seconds / 2, Scope(tracer), workload.min_units)
            finally:
                tracer.uninstall()
            all_units = untraced + units
        else:
            units = run_phase(workload, args.seconds, Scope(), workload.min_units)
            all_units = units
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    setup_samples += [u.setup_s for u in all_units if u.setup_s is not None]
    problems = [p for u in all_units for p in u.problems]
    failed = sum(u.failed for u in all_units)
    # Counts exist only in traced units, so each phase is compared on its own.
    for phase in (untraced, units) if tracer is not None else (units,):
        repeat_found, repeat_failed = repeat_problems(phase)
        problems += repeat_found
        failed += repeat_failed
    attempted = sum(len(u.op_s) for u in all_units)
    failed = min(failed, attempted)

    ops = sum(len(u.op_s) for u in units)
    if tracer is None:
        values, detail = end_to_end(units, setup_samples)
        units_of = END_TO_END_UNITS
    else:
        totals = tracer.snapshot()
        values = {name: totals.get(name, 0) / ops for name in PER_LAYER_NAMES}
        values["error_rate"] = failed / attempted
        traced_p50 = statistics.median(s for u in units for s in u.op_s)
        untraced_p50 = statistics.median(s for u in untraced for s in u.op_s)
        values["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
        spans_path = OUT_DIR / f"{args.workload}-spans.jsonl"  # the latest traced run only
        tracer.write_spans(spans_path)
        detail = {
            "absent": tracer.absent,
            "spans": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "traced_op_p50_ms": traced_p50 * 1e3,
            "untraced_op_p50_ms": untraced_p50 * 1e3,
        }
        units_of = PER_LAYER_UNITS
    if hasattr(workload, "slot_seed"):
        detail["slot_seeds"] = [workload.slot_seed(i) for i in range(workload.slots)]
    if args.workload == "sweep" and not workload.per_op_clock:
        detail["op_latency"] = "sweep wall time shared by its realizations"

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "processes": 1,
        "threads": threading.active_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "config": workload.config,
        "error_rate": failed / attempted,
        **detail,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units_of[name]} for name, v in values.items()},
    }
    (OUT_DIR / f"{label}.json").write_text(
        json.dumps({"provenance": provenance, "problems": problems, "result": result}, indent=1)
    )
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
