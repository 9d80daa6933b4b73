"""The benchmark's three workloads, driven through sensefuse's public API.

Each workload runs in *units*: the smallest piece of work that repeats
exactly for one seed, so that repeats can be compared byte for byte and
count for count.

* ``sweep``: one unit is the default ``(g, g_det)`` sweep through
  ``run_sweep`` + ``write_csv``; one op is one realization.
* ``callflow-warm``: one unit is the life of one store: a primed store
  serving ``requests_per_store`` warm ``demo_callflow`` requests, one op per
  request.  Every unit primes a fresh store, so every run sees the same range
  of log sizes however many requests its time allows.
* ``callflow-raw``: one unit is one live ``archive_raw`` request (one op)
  against a fresh store.  Op ``i`` uses the scenario seed of slot
  ``i % slots``, so every slot repeats within a run.

Set-up (config, scenario, and a warm-up or priming request) is timed apart
from the ops, and every output check runs outside the timed region.
"""
from __future__ import annotations

import copy
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from sensefuse import harness
from sensefuse.config import parse_config
from sensefuse.scenario import build_scenario
from sensefuse.sdsf_store import SdsfStore, SensingContext

from .checks import check_raw_result, check_repeats, check_sweep_csv, check_warm_result
from .tracer import Patches, Tracer

# The default configuration, written out so that a later change of the
# program's defaults does not change what the benchmark measures.
PINNED_CONFIG: dict[str, Any] = {
    "scenario": {
        "bounds": [0.0, 0.0, 120.0, 120.0],
        "buildings": [[20.0, 45.0, 55.0, 75.0], [65.0, 45.0, 100.0, 75.0]],
        "se_poses": [[0.0, 0.0, 0.0], [120.0, 0.0, 0.0]],
        "sigma_r": 0.8,
        "sigma_beta_deg": 2.0,
        "p_det": 0.95,
        "n_targets": 8,
        "lambda_fa": 60.0,
        "edge_fraction": 0.7,
        "edge_jitter_sigma": 1.0,
        "t_steps": 100,
    },
    "sweep": {
        "g_min": 0.0,
        "g_max": 5.0,
        "g_step": 0.25,
        "g_det_values": [1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
        "n_realizations": 50,
        "baseline": True,
    },
    "demo": {
        "pd_min": 0.75,
        "fa_max": 50.0,
        "historical_consent": True,
        "max_age": 1000,
        "requester_kind": "trusted-app",
        "target_type": "vehicle",
        "mask_margin_g": 2.0,
        "gate_g_det": 3.0,
        "preseed_partial_map": True,
        "aging_policy": 100000,
        "archive_raw": False,
    },
}

# Shrinks every workload to a few seconds for the benchmark's own tests.
TINY_OVERRIDES: dict[str, dict[str, Any]] = {
    "scenario": {"t_steps": 10, "lambda_fa": 10.0},
    "sweep": {"n_realizations": 3},
}


def make_config(seed: int, tiny: bool, **overrides: dict[str, Any]) -> dict[str, Any]:
    """The pinned config with the scenario seed set and any section overrides."""
    raw = copy.deepcopy(PINNED_CONFIG)
    for section, values in [*(TINY_OVERRIDES.items() if tiny else ()), *overrides.items()]:
        raw[section].update(values)
    raw["scenario"]["seed"] = seed
    return raw


@dataclass
class Unit:
    """What one unit of a workload measured and produced."""

    op_s: list[float]  # latency of each op
    wall_s: float  # wall time of the unit's timed work
    log_bytes: list[int]  # bytes each request left in its persistent output
    repeat_key: str  # units with equal keys must repeat exactly
    output: str  # digest of the unit's outputs, compared across equal keys
    problems: list[str] = field(default_factory=list)
    failed: int = 0  # ops that failed or failed a check
    setup_s: float | None = None  # set-up time spent inside the unit
    counts: dict[str, float] = field(default_factory=dict)  # traced counts of the unit


class Scope:
    """Turns tracing on around timed work and numbers the ops for the spans."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self._next_op = 0

    def begin_op(self) -> None:
        self._next_op += 1
        if self.tracer is not None:
            self.tracer.op_id = self._next_op

    @contextmanager
    def timed(self) -> Iterator[None]:
        if self.tracer is not None:
            self.tracer.active = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = False
                self.tracer.op_id = 0

    def snapshot(self) -> dict[str, float]:
        return self.tracer.snapshot() if self.tracer is not None else {}


def _digest(*parts: Any) -> str:
    """Digest of a unit's outputs; keeping digests, not the outputs, keeps the
    benchmark's own memory out of ``peak_rss_mb``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _remove(*paths: Path) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


class Workload:
    name = ""
    min_units = 2
    overrides: dict[str, dict[str, Any]] = {}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.config = make_config(seed, tiny, **self.overrides)

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, scope: Scope) -> Unit:
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything the workload installed into the program."""


class SweepWorkload(Workload):
    """The default Monte-Carlo sweep, serial; one op per realization."""

    name = "sweep"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.csv_path = workdir / "sweep.csv"
        self._op_s: list[float] = []
        self._scope = Scope()
        self._patches = Patches()
        # Realizations run inside run_sweep; a thin clock around each one
        # gives the per-op latencies.  Without it, ops share the sweep's time.
        self.per_op_clock = self._patches.replace(
            "harness", "run_realization", self._clocked_realization
        )

    def _clocked_realization(self, fn):
        def clocked(*args, **kwargs):
            self._scope.begin_op()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._op_s.append(perf_counter() - start)
                if self._scope.tracer is not None:
                    self._scope.tracer.op_id = 0

        return clocked

    def setup(self) -> None:
        cfg = parse_config(self.config)
        self.scenario = build_scenario(cfg.scenario)
        self.settings = cfg.sweep
        warmup = parse_config(make_config(self.seed, self.tiny, sweep={"n_realizations": 1}))
        harness.run_sweep(self.scenario, warmup.sweep)

    def run_unit(self, scope: Scope) -> Unit:
        self._scope = scope
        self._op_s = []
        with scope.timed():
            start = perf_counter()
            rows = harness.run_sweep(self.scenario, self.settings)
            harness.write_csv(rows, self.csv_path)
            wall = perf_counter() - start
        text = self.csv_path.read_bytes()
        n = self.settings.n_realizations
        op_s = self._op_s if len(self._op_s) == n else [wall / n] * n
        problems = check_sweep_csv(
            text.decode("utf-8"),
            self.settings.g_values,
            self.settings.g_det_values,
            n,
        )
        return Unit(
            op_s=op_s,
            wall_s=wall,
            log_bytes=[len(text)],
            repeat_key="sweep",
            output=_digest(text),
            problems=problems,
            failed=n if problems else 0,
        )

    def close(self) -> None:
        self._patches.undo()


def _trace_steps(trace: bytes) -> list[tuple]:
    """The trace's events with the task id dropped (it carries the epoch)."""
    events = [json.loads(line) for line in trace.decode("utf-8").splitlines() if line]
    return [tuple(sorted((k, v) for k, v in e.items() if k != "stid")) for e in events]


class CallflowWarmWorkload(Workload):
    """Warm ``historical-only`` requests against one primed persistent store."""

    name = "callflow-warm"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.requests_per_store = 5 if tiny else 100
        self.store_path = workdir / "warm.store"
        self.trace_path = workdir / "warm.jsonl"

    def setup(self) -> None:
        """A fresh store primed by one live request."""
        self.cfg = parse_config(self.config)
        self.scenario = build_scenario(self.cfg.scenario)
        _remove(self.store_path, self.trace_path)
        report = harness.demo_callflow(
            self.cfg, self.scenario, self.trace_path, self.store_path
        )
        result = report.run.result
        if result is None or result.data_source != "live+historical" or not report.preseeded:
            raise RuntimeError(
                f"priming request was not a preseeded live request: {report.run}"
            )
        self.primed_metrics = result.metrics

    def run_unit(self, scope: Scope) -> Unit:
        start = perf_counter()
        self.setup()
        setup_s = perf_counter() - start
        op_s: list[float] = []
        log_bytes: list[int] = []
        traces = hashlib.sha256()
        first_steps = None
        problems: list[str] = []
        failed = 0
        for _ in range(self.requests_per_store):
            before = _size(self.store_path)
            scope.begin_op()
            with scope.timed():
                start = perf_counter()
                report = harness.demo_callflow(
                    self.cfg, self.scenario, self.trace_path, self.store_path
                )
                op_s.append(perf_counter() - start)
            log_bytes.append(_size(self.store_path) - before)
            trace = self.trace_path.read_bytes()
            traces.update(trace)
            steps = _trace_steps(trace)
            first_steps = first_steps or steps
            op_problems = check_warm_result(report.run.result, self.primed_metrics)
            op_problems += check_repeats("trace steps", [first_steps, steps])
            failed += bool(op_problems)
            problems += op_problems
        return Unit(
            op_s=op_s,
            wall_s=sum(op_s),
            log_bytes=log_bytes,
            repeat_key="store",
            output=_digest(traces.digest(), log_bytes),
            problems=problems,
            failed=failed,
            setup_s=setup_s,
        )


class CallflowRawWorkload(Workload):
    """Live requests archiving raw detections, each against a fresh store."""

    name = "callflow-raw"
    overrides = {"demo": {"archive_raw": True}}

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.slots = 2 if tiny else 8
        self.min_units = 2 * self.slots
        self.store_path = workdir / "raw.store"
        self.trace_path = workdir / "raw.jsonl"
        self._ops = 0
        self._scenarios: dict[int, Any] = {}

    def slot_seed(self, slot: int) -> int:
        return self.seed * 1000 + slot

    def _scenario(self, slot: int):
        if slot not in self._scenarios:
            cfg = parse_config(make_config(self.slot_seed(slot), self.tiny, **self.overrides))
            self._scenarios[slot] = (cfg, build_scenario(cfg.scenario))
        return self._scenarios[slot]

    def setup(self) -> None:
        """Config, scenario and one warm-up request against a fresh store."""
        self._scenarios.clear()
        cfg, scenario = self._scenario(0)
        _remove(self.store_path, self.trace_path)
        harness.demo_callflow(cfg, scenario, self.trace_path, self.store_path)

    def raw_records(self, scenario) -> int:
        """Raw records in the store as a fresh process reopening it sees them."""
        store = SdsfStore(self.store_path)
        everything = SensingContext(
            area=scenario.bounds,
            time_window=(0, store.now + 10**9),
            target_type=self.config["demo"]["target_type"],
        )
        return sum(r.kind == "raw" for r in store.fetch(everything))

    def run_unit(self, scope: Scope) -> Unit:
        slot = self._ops % self.slots
        self._ops += 1
        cfg, scenario = self._scenario(slot)
        _remove(self.store_path, self.trace_path)
        scope.begin_op()
        with scope.timed():
            start = perf_counter()
            report = harness.demo_callflow(cfg, scenario, self.trace_path, self.store_path)
            op_s = perf_counter() - start
        result = report.run.result
        problems = check_raw_result(result, self.raw_records(scenario))
        log_bytes = _size(self.store_path)
        return Unit(
            op_s=[op_s],
            wall_s=op_s,
            log_bytes=[log_bytes],
            repeat_key=f"slot-{slot}",
            output=_digest(result.metrics if result else None, self.trace_path.read_bytes()),
            problems=problems,
            failed=int(bool(problems)),
        )


WORKLOADS = {w.name: w for w in (SweepWorkload, CallflowWarmWorkload, CallflowRawWorkload)}
