import dataclasses
import gc

import numpy as np
import pytest

from sensefuse.config import SweepSettings, parse_config
from sensefuse.errors import ConfigError
from sensefuse.fusion import FilterConfig, realization_metrics
from sensefuse import harness
from sensefuse.harness import (
    BASELINE_G,
    CSV_HEADER,
    SweepRow,
    cell_keys,
    demo_callflow,
    preseed_partial_map,
    run_realization,
    run_sweep,
    write_csv,
)
from sensefuse.metrics import MetricResult
from sensefuse.scenario import (
    ClutterModel,
    ScenarioConfig,
    build_scenario,
    generate_realization,
    realization_rng,
)
from sensefuse.sdsf_store import SdsfStore

from conftest import baseline_row, cell_row, read_csv

SMALL_CFG = ScenarioConfig(t_steps=15, clutter=ClutterModel(lambda_fa=15.0), seed=5)
SMALL_SWEEP = SweepSettings(
    g_values=(0.0, 2.0), g_det_values=(1.0, 3.0), n_realizations=3, include_baseline=True
)


@pytest.fixture(scope="module")
def small_scenario():
    return build_scenario(SMALL_CFG)


@pytest.fixture(scope="module")
def small_rows(small_scenario):
    return run_sweep(small_scenario, SMALL_SWEEP)


# -- sweep structure -------------------------------------------------------------


def test_cell_keys_order_baseline_first():
    keys = cell_keys(SMALL_SWEEP)
    assert keys == [
        (BASELINE_G, 1.0),
        (0.0, 1.0),
        (2.0, 1.0),
        (BASELINE_G, 3.0),
        (0.0, 3.0),
        (2.0, 3.0),
    ]
    no_base = cell_keys(dataclasses.replace(SMALL_SWEEP, include_baseline=False))
    assert all(g != BASELINE_G for g, _ in no_base)


def test_rows_sorted_with_baseline_leading_each_gate(small_rows):
    assert [(r.g, r.g_det) for r in small_rows] == [
        (BASELINE_G, 1.0),
        (0.0, 1.0),
        (2.0, 1.0),
        (BASELINE_G, 3.0),
        (0.0, 3.0),
        (2.0, 3.0),
    ]
    assert all(r.n == 3 for r in small_rows)
    assert small_rows[0].g == BASELINE_G and small_rows[1].g != BASELINE_G


def test_row_lookup_helpers(small_rows):
    assert baseline_row(small_rows, 3.0).g == BASELINE_G
    assert cell_row(small_rows, 2.0, 1.0).g_det == 1.0
    with pytest.raises(ValueError):
        baseline_row(small_rows, 7.0)
    with pytest.raises(ValueError):
        cell_row(small_rows, 9.0, 1.0)


def test_sweep_rerun_is_identical(small_scenario, small_rows):
    assert run_sweep(small_scenario, SMALL_SWEEP) == small_rows


def test_serial_equals_parallel(small_scenario, small_rows):
    assert run_sweep(small_scenario, SMALL_SWEEP, workers=2) == small_rows


def test_row_composes_from_realizations(small_scenario, small_rows):
    cells = np.array(cell_keys(SMALL_SWEEP))
    per_real = [
        run_realization(small_scenario, cells, ri) for ri in range(SMALL_SWEEP.n_realizations)
    ]
    i = cell_keys(SMALL_SWEEP).index((2.0, 3.0))
    pd = np.array([pd_avg[i] for pd_avg, _ in per_real])
    fa = np.array([fa_avg[i] for _, fa_avg in per_real])
    row = cell_row(small_rows, 2.0, 3.0)
    assert (row.pd_mean, row.pd_std, row.fa_mean, row.fa_std) == (
        pd.mean(),
        pd.std(ddof=1),
        fa.mean(),
        fa.std(ddof=1),
    )


def test_sweep_keeps_no_metric_results_across_realizations(small_scenario, monkeypatch):
    # A sweep keeps each cell's two floats, not its MetricResult: thousands of
    # results outliving their realization set off full garbage collections.
    # Only the realization in hand (the loop variable) may still be alive.
    live = []

    def counted(*args):
        live.append(sum(isinstance(o, MetricResult) for o in gc.get_objects()))
        return run_realization(*args)

    monkeypatch.setattr(harness, "run_realization", counted)
    run_sweep(small_scenario, SMALL_SWEEP)
    assert len(live) == SMALL_SWEEP.n_realizations
    assert max(live) - min(live) <= len(cell_keys(SMALL_SWEEP))


def test_baseline_ignores_mask_margin(small_scenario):
    # Baseline rows disable the mask, so they are identical across sweeps
    # that differ only in their g grids.
    other = SweepSettings(
        g_values=(1.0, 5.0), g_det_values=(3.0,), n_realizations=2, include_baseline=True
    )
    ours = SweepSettings(
        g_values=(0.0,), g_det_values=(3.0,), n_realizations=2, include_baseline=True
    )
    a = baseline_row(run_sweep(small_scenario, other), 3.0)
    b = baseline_row(run_sweep(small_scenario, ours), 3.0)
    assert a == b


def test_call_flow_and_sweep_share_one_kernel(default_scenario, tmp_path):
    # A live call flow masked by the scenario's own map gives exactly the
    # sweep's metrics for the same cell; without consent, the baseline cell.
    cfg = parse_config({})
    pd_avg, fa_avg = run_realization(default_scenario, np.array(cell_keys(cfg.sweep)), 0)
    cells = dict(zip(cell_keys(cfg.sweep), zip(pd_avg.tolist(), fa_avg.tolist())))
    rz = generate_realization(default_scenario, realization_rng(default_scenario.seed, 0))
    for g, g_det in ((0.0, 1.0), (2.0, 3.0), (5.0, 10.0)):
        fc = FilterConfig(mask_margin_g=g, gate_g_det=g_det)
        (masked,) = realization_metrics(default_scenario, rz, default_scenario.static_map, [fc])
        assert (masked.pd_avg, masked.fa_avg) == cells[(g, g_det)]
        (unmasked,) = realization_metrics(default_scenario, rz, None, [fc])
        assert (unmasked.pd_avg, unmasked.fa_avg) == cells[(BASELINE_G, g_det)]
        demo = dataclasses.replace(
            cfg.demo, mask_margin_g=g, gate_g_det=g_det, historical_consent=False
        )
        store = tmp_path / f"{g}-{g_det}.store"
        run = demo_callflow(
            dataclasses.replace(cfg, demo=demo), default_scenario, tmp_path / "t.jsonl", store
        ).run
        assert run.result is not None and not run.result.mask_enabled
        assert run.result.metrics == unmasked


def test_workers_validation(small_scenario):
    with pytest.raises(ConfigError):
        run_sweep(small_scenario, SMALL_SWEEP, workers=0)


def in_process_pool(sizes):
    """A ``ProcessPoolExecutor`` stand-in that records its size and maps in this process."""

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return InProcessPool


def test_workers_capped_at_realization_count(small_scenario, small_rows, monkeypatch):
    # A fork pool starts all of its workers at the first submit, so the pool
    # is never sized past the jobs, and one job runs without a pool.
    sizes = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert run_sweep(small_scenario, SMALL_SWEEP, workers=64) == small_rows
    one = dataclasses.replace(SMALL_SWEEP, n_realizations=1)
    assert run_sweep(small_scenario, one, workers=8) == run_sweep(small_scenario, one)
    assert sizes == [SMALL_SWEEP.n_realizations]


def test_workers_capped_at_usable_cpus(small_scenario, small_rows, monkeypatch):
    # The pool is never sized past the CPUs this process may run on: its
    # affinity set, or the CPU count where there is no affinity call, or one
    # CPU (no pool) where the count is unknown.
    sizes = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert run_sweep(small_scenario, SMALL_SWEEP, workers=64) == small_rows
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    for count in (2, None):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: count)
        assert run_sweep(small_scenario, SMALL_SWEEP, workers=64) == small_rows
    assert sizes == [2, 2]


# -- CSV --------------------------------------------------------------------------


def test_csv_header_and_round_trip(tmp_path, small_rows):
    path = tmp_path / "rows.csv"
    write_csv(small_rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert read_csv(path) == small_rows


def test_csv_rewrite_is_byte_identical(tmp_path, small_rows):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(small_rows, a)
    write_csv(read_csv(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_empty_rows_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert read_csv(path) == []


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="unexpected header"):
        read_csv(path)


def test_csv_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n1.0,2.0\n")
    with pytest.raises(ValueError, match="malformed"):
        read_csv(path)


# -- demo -------------------------------------------------------------------------


def small_app_config():
    cfg = parse_config({})
    scenario = dataclasses.replace(
        cfg.scenario, t_steps=15, clutter=ClutterModel(lambda_fa=15.0), seed=5
    )
    demo = dataclasses.replace(cfg.demo, pd_min=0.0, fa_max=1e9)
    return dataclasses.replace(cfg, scenario=scenario, demo=demo)


def test_preseed_covers_western_half_once(small_scenario):
    store = SdsfStore()
    assert preseed_partial_map(store, small_scenario, 1000) is True
    assert len(store) == 1
    assert preseed_partial_map(store, small_scenario, 1000) is False
    assert len(store) == 1


def test_demo_two_runs_share_history(tmp_path, small_scenario):
    cfg = small_app_config()
    store_path = tmp_path / "store.jsonl"
    first = demo_callflow(cfg, small_scenario, tmp_path / "t1.jsonl", store_path)
    assert first.preseeded is True
    assert first.run.result.data_source == "live+historical"
    second = demo_callflow(cfg, small_scenario, tmp_path / "t2.jsonl", store_path)
    assert second.preseeded is False  # store already populated
    assert second.run.result.data_source == "historical-only"
    assert second.run.result.metrics == first.run.result.metrics


def test_demo_trace_bytes_deterministic_across_fresh_stores(tmp_path, small_scenario):
    cfg = small_app_config()
    a = demo_callflow(cfg, small_scenario, tmp_path / "a.jsonl", tmp_path / "sa.jsonl")
    b = demo_callflow(cfg, small_scenario, tmp_path / "b.jsonl", tmp_path / "sb.jsonl")
    assert a.trace_path.read_bytes() == b.trace_path.read_bytes()
    assert a.run.result == b.run.result
