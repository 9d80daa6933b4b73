import math

import numpy as np
import pytest

from sensefuse.fusion import (
    FilterConfig,
    evaluate_distances,
    fused_metrics,
    precompute_distances,
)
from sensefuse.geometry import Rect, StaticMap, WorldPoint
from sensefuse.scenario import (
    ClutterModel,
    Frame,
    ScenarioConfig,
    build_scenario,
    generate_frames,
    realization_rng,
)

from conftest import brute_force_metrics, make_detection


def outcome(detections, truth=(), static_map=None, fc=FilterConfig()):
    """One frame through the kernel: (detected by target id, false alarms)."""
    frame = Frame(t=0, detections=tuple(detections), truth=tuple(truth))
    fd = precompute_distances([frame], static_map)
    detected, unmatched = evaluate_distances(fd, fc)
    return dict(zip(fd.target_ids, detected[0].tolist())), int(unmatched[0])


def kept(detections, static_map, g):
    """Per-detection mask survival, each detection in its own target-free frame."""
    frames = [Frame(t=i, detections=(d,), truth=()) for i, d in enumerate(detections)]
    fd = precompute_distances(frames, static_map)
    _, unmatched = evaluate_distances(fd, FilterConfig(g, 3.0))
    return [bool(u) for u in unmatched]


# -- FilterConfig ---------------------------------------------------------------


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(mask_margin_g=-0.5)
    with pytest.raises(ValueError):
        FilterConfig(mask_margin_g=math.nan)
    with pytest.raises(ValueError):
        FilterConfig(gate_g_det=0.0)
    with pytest.raises(ValueError):
        FilterConfig(gate_g_det=math.inf)


# -- hard mask ------------------------------------------------------------------


def test_mask_boundary_tie_is_rejected(unit_map):
    # (13, 5) is exactly 3 m from the building; distance <= g counts inside.
    tie = make_detection(13.0, 5.0)
    assert kept([tie], unit_map, 3.0) == [False]
    assert kept([tie], unit_map, 2.999) == [True]


def test_mask_keeps_outside_and_preserves_order(unit_map):
    far = make_detection(30.0, 30.0)
    inside = make_detection(5.0, 5.0)
    near = make_detection(11.0, 5.0)
    assert kept([far, inside, near], unit_map, 0.5) == [True, False, True]


def test_mask_removes_building_center_at_any_margin(unit_map):
    center = make_detection(5.0, 5.0)
    for g in (0.0, 0.1, 2.0, 10.0):
        assert kept([center], unit_map, g) == [False]


def test_mask_with_empty_map_is_a_no_op():
    empty = StaticMap((), Rect(-50.0, -50.0, 50.0, 50.0))
    dets = [make_detection(0.0, 0.0), make_detection(10.0, 10.0)]
    assert kept(dets, empty, 100.0) == [True, True]
    assert kept(dets, None, 100.0) == [True, True]


# -- validation gate --------------------------------------------------------------


def test_gate_match_within_radius():
    truth = [(0, WorldPoint(10.0, 10.5))]
    out = outcome([make_detection(10.0, 10.0)], truth, fc=FilterConfig(0.0, 1.0))
    assert out == ({0: True}, 0)


def test_gate_miss_counts_false_alarm():
    truth = [(0, WorldPoint(20.0, 20.0))]
    out = outcome([make_detection(10.0, 10.0)], truth, fc=FilterConfig(0.0, 1.0))
    assert out == ({0: False}, 1)


def test_gate_mixed_match_and_false_alarm():
    dets = [make_detection(0.0, 0.0), make_detection(3.0, 0.0)]
    out = outcome(dets, [(0, WorldPoint(0.0, 0.0))], fc=FilterConfig(0.0, 2.0))
    assert out == ({0: True}, 1)


def test_gate_boundary_tie_is_inside():
    truth = [(0, WorldPoint(0.0, 0.0))]
    out = outcome([make_detection(2.0, 0.0)], truth, fc=FilterConfig(0.0, 2.0))
    assert out == ({0: True}, 0)


def test_gate_one_detection_can_cover_two_targets():
    truth = [(0, WorldPoint(0.0, 0.0)), (1, WorldPoint(1.0, 0.0))]
    out = outcome([make_detection(0.5, 0.0)], truth, fc=FilterConfig(0.0, 1.0))
    assert out == ({0: True, 1: True}, 0)


# -- mask then gate ---------------------------------------------------------------


def test_mask_runs_before_gate(unit_map):
    # The detection is within the gate of the target but also within the
    # dilated building, so masking removes it before gating can match it.
    dets = [make_detection(10.5, 5.0)]
    truth = [(0, WorldPoint(12.0, 5.0))]
    masked = outcome(dets, truth, unit_map, FilterConfig(1.0, 3.0, mask_enabled=True))
    assert masked == ({0: False}, 0)
    unmasked = outcome(dets, truth, unit_map, FilterConfig(1.0, 3.0, mask_enabled=False))
    assert unmasked == ({0: True}, 0)


def test_mask_disabled_equals_plain_gating(default_scenario):
    frames = generate_frames(default_scenario, realization_rng(7, 5))[:3]
    fc = FilterConfig(mask_margin_g=4.0, gate_g_det=3.0, mask_enabled=False)
    with_map = evaluate_distances(precompute_distances(frames, default_scenario.static_map), fc)
    plain = evaluate_distances(precompute_distances(frames, None), fc)
    for a, b in zip(with_map, plain):
        np.testing.assert_array_equal(a, b)


def test_clutter_inside_building_is_masked_at_zero_margin(unit_map):
    clutter = make_detection(5.0, 5.0, is_clutter_truth=True)
    assert outcome([clutter], (), unit_map, FilterConfig(0.0, 3.0)) == ({}, 0)


def test_mask_survival_matches_area_ratio(default_scenario, rng):
    # Uniform points survive the g=0 mask in proportion to the open area:
    # 1 - 2100 / 14400.  Binomial three-sigma band around that.
    n = 1_000
    xy = rng.uniform((0.0, 0.0), (120.0, 120.0), (n, 2))
    dets = [make_detection(float(x), float(y)) for x, y in xy]
    _, n_kept = outcome(dets, (), default_scenario.static_map, FilterConfig(0.0, 3.0))
    p = 1.0 - 2100.0 / 14400.0
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(n_kept / n - p) <= 3.0 * sigma


# -- batch kernel ---------------------------------------------------------------


def _mixed_frames() -> list[Frame]:
    cfg = ScenarioConfig(t_steps=10, clutter=ClutterModel(lambda_fa=20.0))
    scenario = build_scenario(cfg)
    frames = generate_frames(scenario, realization_rng(scenario.seed, 1))
    frames[3] = Frame(t=3, detections=(), truth=frames[3].truth)
    frames[6] = Frame(t=6, detections=frames[6].detections, truth=())
    return frames


def _batch_matches_loop(frames, static_map, fc):
    fd = precompute_distances(frames, static_map)
    detected, unmatched = evaluate_distances(fd, fc)
    col = {tid: i for i, tid in enumerate(fd.target_ids)}
    for t, frame in enumerate(frames):
        pd, _, fa = brute_force_metrics([frame], static_map, fc)
        assert int(unmatched[t]) == fa, (t, fc)
        for tid, hit_rate in pd.items():
            assert bool(detected[t, col[tid]]) == (hit_rate == 1.0), (t, tid, fc)
        # Padding columns for targets absent from this frame stay False.
        in_frame = {tid for tid, _ in frame.truth}
        for tid in fd.target_ids:
            if tid not in in_frame:
                assert not detected[t, col[tid]]
    pd, _, fa = brute_force_metrics(frames, static_map, fc)
    result = fused_metrics(fd, fc)
    assert result.pd_per_target == pd and result.fa_avg == fa, fc


def test_batch_kernel_matches_frame_loop_exactly():
    frames = _mixed_frames()
    static_map = build_scenario(ScenarioConfig()).static_map
    for g in (0.0, 1.0, 2.5, 5.0):
        for g_det in (1.0, 3.0, 10.0):
            for mask_enabled in (True, False):
                _batch_matches_loop(frames, static_map, FilterConfig(g, g_det, mask_enabled))


def test_precompute_shapes_and_padding():
    frames = _mixed_frames()
    static_map = build_scenario(ScenarioConfig()).static_map
    fd = precompute_distances(frames, static_map)
    j_max = max(len(f.detections) for f in frames)
    assert fd.map_dist_sq.shape == (10, j_max)
    assert fd.target_dist_sq.shape == (10, j_max, len(fd.target_ids))
    assert fd.det_valid.shape == (10, j_max)
    assert fd.target_inbounds.shape == (10, len(fd.target_ids))
    for t, frame in enumerate(frames):
        n_det = len(frame.detections)
        assert fd.det_valid[t, :n_det].all()
        assert not fd.det_valid[t, n_det:].any()
        assert np.isinf(fd.map_dist_sq[t, n_det:]).all()
        assert np.isinf(fd.target_dist_sq[t, n_det:, :]).all()
    assert fd.target_ids == tuple(sorted(fd.target_ids))


def test_precompute_empty_frames():
    frames = [Frame(t=0, detections=(), truth=()), Frame(t=1, detections=(), truth=())]
    static_map = StaticMap((), Rect(-10.0, -10.0, 10.0, 10.0))
    fd = precompute_distances(frames, static_map)
    assert fd.map_dist_sq.shape == (2, 0)
    assert fd.target_ids == ()
    detected, unmatched = evaluate_distances(fd, FilterConfig(1.0, 3.0))
    assert detected.shape == (2, 0)
    assert unmatched.tolist() == [0, 0]
