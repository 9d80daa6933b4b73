"""Monte-Carlo sweep harness and demo orchestration.

The sweep evaluates a grid of (mask margin, validation gate) pairs over many
independent realizations.  It is realization-major: each realization is
generated once as arrays, reduced to distance tensors once, and one
closed-form kernel pass then yields every (mask margin, gate) cell at once.
Beyond speed this gives the grid common random numbers: within a
realization, two cells differ only in their thresholds, so monotone
relationships hold pathwise rather than just in expectation.

Results land in a small CSV whose floats are written with ``repr`` so a
read/write round trip is byte-identical.
"""
from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .callflow import CallFlowRun, run_call_flow, write_trace
from .config import AppConfig, SweepSettings
from .errors import ConfigError, EmptyRunError
from .fusion import grid_arrays, realization_distances
from .geometry import Rect, StaticMap
from .scenario import Scenario, generate_realization, realization_rng
from .scenario import generate_frames  # noqa: F401  re-export; perfbench's tests bind it here
from .sdsf_store import SdsfStore, SensingContext

log = logging.getLogger(__name__)

# Sentinel mask margin for the mask-disabled baseline row.  Negative margins
# are otherwise invalid, so the value cannot collide with a real grid cell,
# and the fusion kernel reads a negative margin as mask off.
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
    scenario: Scenario, cells: np.ndarray, realization: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's ``pd_avg`` and ``fa_avg`` on one realization, as (cells,) arrays.

    ``cells`` is the sweep's :func:`cell_keys` as a (cells, 2) array.
    """
    rz = generate_realization(scenario, realization_rng(scenario.seed, realization))
    fd = realization_distances(scenario, rz, scenario.static_map)
    _, pd_avg, fa_avg = grid_arrays(fd, *cells.T)
    return pd_avg, fa_avg


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_sweep(scenario: Scenario, sweep: SweepSettings, workers: int = 1) -> list[SweepRow]:
    """Run the full sweep and reduce it to one row per cell.

    The cells are built once as one array, and each realization returns two
    (cells,) arrays.  ``workers > 1`` distributes whole
    realizations over processes, at most one per realization, since a pool
    starts all of its workers at once, and at most one per CPU this process
    may use.  Results land in row-major (cells, realizations) arrays by
    realization index, so serial and parallel runs produce identical rows.
    Each row reduces in the same pairwise order as a 1-D array of that cell's
    values.  Rows report means and sample (n-1) standard deviations, zero for
    one realization.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    n = sweep.n_realizations
    if n < 1:
        raise EmptyRunError("cannot aggregate zero realizations")
    keys = cell_keys(sweep)
    cells = np.array(keys).reshape(-1, 2)
    pd_avg = np.empty((len(keys), n))
    fa_avg = np.empty((len(keys), n))
    workers = min(workers, n, _usable_cpus())
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        jobs = (run_realization, repeat(scenario), repeat(cells), range(n))
        for ri, (cell_pd, cell_fa) in enumerate(pool.map(*jobs) if pool else map(*jobs)):
            pd_avg[:, ri], fa_avg[:, ri] = cell_pd, cell_fa

    if n > 1:
        pd_std, fa_std = pd_avg.std(axis=1, ddof=1), fa_avg.std(axis=1, ddof=1)
    else:
        pd_std = fa_std = np.zeros(len(keys))
    stats = np.stack([pd_avg.mean(axis=1), pd_std, fa_avg.mean(axis=1), fa_std], axis=1)
    return [SweepRow(g, g_det, *cell, n) for (g, g_det), cell in zip(keys, stats.tolist())]


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
        context=ctx,
        payload=StaticMap(known, bounds),
        created_at=store.now,
        aging_policy=aging_policy,
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
    # The last window this run stores ends at the clock + t_steps + aging_policy.
    if store.now + scenario.t_steps + demo.aging_policy > 2**63 - 1:
        raise ConfigError(
            f"demo.aging_policy: the store clock {store.now} + t_steps {scenario.t_steps}"
            f" + aging_policy {demo.aging_policy} must be <= 2**63 - 1"
        )
    # Opened before anything is stored, so a trace that cannot be written
    # leaves the store as it was.
    with Path(trace_path).open("w", encoding="utf-8") as trace:
        preseeded = demo.preseed_partial_map and preseed_partial_map(
            store, scenario, demo.aging_policy
        )
        run = run_call_flow(scenario, demo, store)
        write_trace(run.trace, trace)
    return DemoReport(
        run=run,
        trace_path=Path(trace_path),
        store_path=Path(store_path),
        preseeded=preseeded,
    )
