"""Monte-Carlo sweep harness and demo orchestration.

The sweep evaluates a grid of (mask margin, validation gate) pairs over many
independent realizations.  It is realization-major: each realization is
generated once as arrays, reduced to distance tensors once, and each gate is
then one closed-form kernel pass that yields every mask margin at once.
Beyond speed this gives the grid common random numbers: within a
realization, two cells differ only in their thresholds, so monotone
relationships hold pathwise rather than just in expectation.

Results land in a small CSV whose floats are written with ``repr`` so a
read/write round trip is byte-identical.
"""
from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .callflow import (
    CallFlowRun,
    Kpi,
    PolicyRules,
    ServiceRequest,
    run_call_flow,
    write_trace,
)
from .config import AppConfig, SweepSettings
from .errors import ConfigError
from .fusion import FilterConfig, detection_distances, grid_metrics
from .geometry import Rect, StaticMap
from .metrics import MetricResult, aggregate_values
from .scenario import Scenario, generate_realization, realization_rng
from .scenario import generate_frames  # noqa: F401  re-export; perfbench's tests bind it here
from .sdsf_store import SdsfStore, SensingContext

log = logging.getLogger(__name__)

# Sentinel mask margin for the mask-disabled baseline row.  Negative margins
# are otherwise invalid, so the value cannot collide with a real grid cell.
BASELINE_G = -1.0

CSV_HEADER = "g,g_det,pd_mean,pd_std,fa_mean,fa_std,n"

CellKey = tuple[float, float]  # (g, g_det); g == BASELINE_G means mask off


@dataclass(frozen=True)
class SweepRow:
    """Aggregated sweep results for one grid cell."""

    g: float
    g_det: float
    pd_mean: float
    pd_std: float
    fa_mean: float
    fa_std: float
    n: int


def cell_keys(sweep: SweepSettings) -> list[CellKey]:
    """All grid cells of a sweep, baseline rows included, in output order."""
    keys: list[CellKey] = []
    for g_det in sorted(sweep.g_det_values):
        if sweep.include_baseline:
            keys.append((BASELINE_G, g_det))
        for g in sorted(sweep.g_values):
            keys.append((g, g_det))
    return keys


def run_realization(
    scenario: Scenario, sweep: SweepSettings, realization: int
) -> dict[CellKey, MetricResult]:
    """Evaluate every grid cell on one realization, one kernel pass per gate."""
    rz = generate_realization(scenario, realization_rng(scenario.seed, realization))
    ids = [track.id for track in scenario.tracks]
    fd = detection_distances(rz.xy, rz.frame_of, rz.truth_xy, rz.truth_in, ids, scenario.static_map)
    keys = cell_keys(sweep)
    configs = [
        FilterConfig(0.0, g_det, mask_enabled=False) if g == BASELINE_G else FilterConfig(g, g_det)
        for g, g_det in keys
    ]
    return dict(zip(keys, grid_metrics(fd, configs)))


def _run_realization_args(args: tuple[Scenario, SweepSettings, int]) -> dict[CellKey, MetricResult]:
    return run_realization(*args)


def run_sweep(scenario: Scenario, sweep: SweepSettings, workers: int = 1) -> list[SweepRow]:
    """Run the full sweep and aggregate across realizations.

    ``workers > 1`` distributes whole realizations over processes; the
    aggregation order is fixed by realization index, so serial and parallel
    runs produce identical rows.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    jobs = [(scenario, sweep, ri) for ri in range(sweep.n_realizations)]
    keys = cell_keys(sweep)
    pd_avg: dict[CellKey, list[float]] = {key: [] for key in keys}
    fa_avg: dict[CellKey, list[float]] = {key: [] for key in keys}

    def collect(per_realization: Iterable[dict[CellKey, MetricResult]]) -> None:
        # Keep two floats per cell, not the MetricResults: thousands of those
        # outliving each realization set off a full garbage collection every
        # few sweeps, in the middle of a realization.
        for res in per_realization:
            for key in keys:
                result = res[key]
                pd_avg[key].append(result.pd_avg)
                fa_avg[key].append(result.fa_avg)

    if workers == 1:
        collect(run_realization(*job) for job in jobs)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_run_realization_args, jobs))

    rows = []
    for key in keys:
        stats = aggregate_values(pd_avg[key], fa_avg[key])
        g, g_det = key
        rows.append(
            SweepRow(
                g=g,
                g_det=g_det,
                pd_mean=stats.pd_mean,
                pd_std=stats.pd_std,
                fa_mean=stats.fa_mean,
                fa_std=stats.fa_std,
                n=stats.n,
            )
        )
    rows.sort(key=lambda r: (r.g_det, r.g))
    return rows


# -- CSV ----------------------------------------------------------------------


def write_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Write sweep rows; floats use repr so round trips are byte-identical."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{float(r.g)!r},{float(r.g_det)!r},{float(r.pd_mean)!r},"
                f"{float(r.pd_std)!r},{float(r.fa_mean)!r},{float(r.fa_std)!r},{r.n}\n"
            )


# -- demo ---------------------------------------------------------------------


@dataclass(frozen=True)
class DemoReport:
    """Outcome of one demo execution of the call flow."""

    run: CallFlowRun
    trace_path: Path
    store_path: Path
    preseeded: bool


def preseed_partial_map(store: SdsfStore, scenario: Scenario, aging_policy: int) -> bool:
    """Seed an empty store with map knowledge of the western half of the area.

    Gives the first demo run something real to fetch: availability comes back
    partial, and the fused run masks with only the buildings that fall inside
    the known half.  No-op when the store already has records.
    """
    if len(store) > 0:
        return False
    bounds = scenario.bounds
    half = Rect(
        bounds.x_min, bounds.y_min, 0.5 * (bounds.x_min + bounds.x_max), bounds.y_max
    )
    known = tuple(
        clipped
        for b in scenario.static_map.rects
        if (clipped := b.intersection(half)) is not None
    )
    ctx = SensingContext(
        area=half,
        time_window=(store.now, store.now + aging_policy),
        target_type="unknown",
    )
    store.store(
        stid="stid-preseed",
        kind="processed",
        context=ctx,
        payload=StaticMap(known, bounds),
        created_at=store.now,
        aging_policy=aging_policy,
        metadata={"source": "preseed", "content": "static-map"},
    )
    return True


def demo_callflow(
    cfg: AppConfig, scenario: Scenario, trace_path: str | Path, store_path: str | Path
) -> DemoReport:
    """Run the 16-step procedure once against a persistent store.

    Repeated invocations against the same store paths build history: the
    first run senses live and archives, later runs find complete coverage and
    can be served from the archive alone.
    """
    demo = cfg.demo
    store = SdsfStore(store_path)
    preseeded = False
    if demo.preseed_partial_map:
        preseeded = preseed_partial_map(store, scenario, demo.aging_policy)
    request = ServiceRequest(
        kpi=Kpi(pd_min=demo.pd_min, fa_max=demo.fa_max),
        historical_consent=demo.historical_consent,
        max_age=demo.max_age,
        requester_kind=demo.requester_kind,
        target_type=demo.target_type,
        area=scenario.bounds,
    )
    rules = PolicyRules(
        prohibited_areas=demo.prohibited_areas, charging_rules=demo.charging_rules
    )
    fc = FilterConfig(
        mask_margin_g=demo.mask_margin_g, gate_g_det=demo.gate_g_det, mask_enabled=True
    )
    run = run_call_flow(
        scenario,
        request,
        rules,
        store,
        fc,
        aging_policy=demo.aging_policy,
        archive_raw=demo.archive_raw,
    )
    write_trace(run.trace, trace_path)
    return DemoReport(
        run=run,
        trace_path=Path(trace_path),
        store_path=Path(store_path),
        preseeded=preseeded,
    )
