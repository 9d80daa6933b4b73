import logging
import math

import numpy as np
import pytest

from sensefuse import harness
from sensefuse.config import SweepSettings
from sensefuse.errors import EmptyRunError
from sensefuse.fusion import FilterConfig, FrameDistances
from sensefuse.geometry import WorldPoint
from sensefuse.measurement import NoiseModel
from sensefuse.metrics import MetricResult
from sensefuse.scenario import (
    ClutterModel,
    Frame,
    ScenarioConfig,
    build_scenario,
    generate_frames,
    realization_rng,
)

from conftest import columns_of
from oracles import fused_metrics, precompute_distances


def frame(detected: dict[int, bool], unmatched: int = 0) -> Frame:
    """A frame whose gating outcome is exactly ``detected`` and ``unmatched``.

    Targets sit 10 m apart; a hit is a detection on the target, a false
    alarm a detection far from every target.
    """
    truth = tuple((tid, WorldPoint(10.0 * tid, 0.0)) for tid in detected)
    hits = [(10.0 * tid, 0.0) for tid, hit in detected.items() if hit]
    misses = [(1000.0 + 10.0 * i, 1000.0) for i in range(unmatched)]
    return Frame(t=0, detections=columns_of(hits + misses), truth=truth)


def metrics(frames: list[Frame]) -> MetricResult:
    return fused_metrics(precompute_distances(frames, None), FilterConfig(0.0, 1.0))


# -- counting -------------------------------------------------------------------


def test_pd_counts_detected_fraction_of_observable_steps():
    result = metrics([frame({0: True}), frame({0: True}), frame({0: False}), frame({0: True})])
    assert result.pd_per_target == {0: 0.75}
    assert result.pd_avg == 0.75


def test_fa_rate_is_total_over_steps():
    # 120 unmatched detections across 100 frames: rate 1.2 per frame.
    frames = [frame({}, unmatched=1)] * 80 + [frame({}, unmatched=2)] * 20
    result = metrics(frames)
    assert result.fa_avg == 1.2


def test_fa_rate_from_outcomes_only():
    result = metrics([frame({}, unmatched=3), frame({}, unmatched=0)])
    assert result.fa_avg == 1.5


def test_out_of_area_steps_do_not_dilute_pd():
    # The target leaves the area in the middle frame, which still counts for fa.
    result = metrics([frame({0: True}), frame({}), frame({0: True})])
    assert result.pd_per_target == {0: 1.0}


def test_finalize_requires_frames():
    with pytest.raises(EmptyRunError):
        metrics([])


def test_never_observable_target_excluded_with_warning(caplog):
    # Target 0 is in the area for 4 frames and detected in 3; target 1 never is.
    fd = FrameDistances(
        map_dist_sq=np.full(3, np.inf),
        target_dist_sq=np.array([[0.0, np.inf]] * 3),
        frame_of=np.arange(3),
        target_inbounds=np.array([[True, False]] * 4),
        target_ids=(0, 1),
    )
    with caplog.at_level(logging.WARNING):
        result = fused_metrics(fd, FilterConfig(0.0, 1.0))
    assert result.pd_per_target == {0: 0.75}
    assert result.excluded_targets == (1,)
    assert result.pd_avg == 0.75
    assert result.fa_avg == 0.0
    assert "never inside" in caplog.text


def test_no_observable_targets_gives_nan_pd():
    result = metrics([frame({}, unmatched=2)] * 5)
    assert result.pd_per_target == {}
    assert math.isnan(result.pd_avg)
    assert result.fa_avg == 2.0


# -- aggregation across realizations ---------------------------------------------


def one_cell_sweep(monkeypatch, pd_avg: list[float], fa_avg: list[float]) -> harness.SweepRow:
    """The row of a one-cell sweep whose realizations report these values."""
    sweep = SweepSettings(
        g_values=(0.0,), g_det_values=(1.0,), n_realizations=len(pd_avg), include_baseline=False
    )

    def realization(scenario, sweep, ri):
        return np.array([pd_avg[ri]]), np.array([fa_avg[ri]])

    monkeypatch.setattr(harness, "run_realization", realization)
    (row,) = harness.run_sweep(None, sweep)
    return row


def test_aggregate_mean_and_sample_std(monkeypatch):
    row = one_cell_sweep(monkeypatch, [0.8, 0.6], [1.0, 3.0])
    assert row.pd_mean == pytest.approx(0.7)
    # Sample (n-1) standard deviation of [0.8, 0.6].
    assert row.pd_std == pytest.approx(math.sqrt(0.02), rel=1e-12)
    assert row.fa_mean == pytest.approx(2.0)
    assert row.fa_std == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert row.n == 2


def test_aggregate_single_realization_has_zero_std(monkeypatch):
    row = one_cell_sweep(monkeypatch, [0.9], [2.0])
    assert row.pd_std == 0.0 and row.fa_std == 0.0 and row.n == 1


def test_aggregate_identical_realizations_have_zero_std(monkeypatch):
    row = one_cell_sweep(monkeypatch, [0.9] * 50, [2.0] * 50)
    assert row.pd_std == pytest.approx(0.0, abs=1e-15)
    assert row.fa_std == pytest.approx(0.0, abs=1e-15)


def test_aggregate_rejects_empty(monkeypatch):
    with pytest.raises(EmptyRunError):
        one_cell_sweep(monkeypatch, [], [])


# -- end to end -------------------------------------------------------------------


def test_clutter_free_perfect_detection_is_exact():
    # Short ranges and tight noise keep every detection within a 10 m gate
    # and far from any building, so the metrics are exactly perfect.
    cfg = ScenarioConfig(
        p_det=1.0,
        clutter=ClutterModel(lambda_fa=0.0),
        noise=NoiseModel(0.3, math.radians(0.5)),
    )
    scenario = build_scenario(cfg)
    frames = generate_frames(scenario, realization_rng(scenario.seed, 0))
    fc = FilterConfig(mask_margin_g=0.0, gate_g_det=10.0, mask_enabled=True)
    result = fused_metrics(precompute_distances(frames, scenario.static_map), fc)
    assert result.pd_avg == 1.0
    assert result.fa_avg == 0.0
    assert all(v == 1.0 for v in result.pd_per_target.values())
