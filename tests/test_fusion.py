import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensefuse.errors import EmptyRunError
from sensefuse.fusion import FilterConfig, FrameDistances, grid_metrics
from sensefuse.geometry import Rect, StaticMap, WorldPoint
from sensefuse.scenario import (
    ClutterModel,
    Frame,
    ScenarioConfig,
    build_scenario,
    generate_frames,
    realization_rng,
)

from conftest import brute_force_metrics, columns_of
from oracles import fused_metrics, precompute_distances, result_from_counts


def frame_outcome(frame, static_map=None, fc=FilterConfig()):
    """One frame through the kernel: (detected by target id, false alarms)."""
    result = fused_metrics(precompute_distances([frame], static_map), fc)
    return {tid: pd == 1.0 for tid, pd in result.pd_per_target.items()}, int(result.fa_avg)


def outcome(points, truth=(), static_map=None, fc=FilterConfig()):
    frame = Frame(t=0, detections=columns_of(points), truth=tuple(truth))
    return frame_outcome(frame, static_map, fc)


def kept(points, static_map, g):
    """Per-detection mask survival, each detection in its own target-free frame."""
    return [outcome([p], (), static_map, FilterConfig(g, 3.0))[1] == 1 for p in points]


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
    tie = (13.0, 5.0)
    assert kept([tie], unit_map, 3.0) == [False]
    assert kept([tie], unit_map, 2.999) == [True]


def test_mask_keeps_outside_and_preserves_order(unit_map):
    far, inside, near = (30.0, 30.0), (5.0, 5.0), (11.0, 5.0)
    assert kept([far, inside, near], unit_map, 0.5) == [True, False, True]


def test_mask_removes_building_center_at_any_margin(unit_map):
    center = (5.0, 5.0)
    for g in (0.0, 0.1, 2.0, 10.0):
        assert kept([center], unit_map, g) == [False]


def test_mask_with_empty_map_is_a_no_op():
    empty = StaticMap((), Rect(-50.0, -50.0, 50.0, 50.0))
    dets = [(0.0, 0.0), (10.0, 10.0)]
    assert kept(dets, empty, 100.0) == [True, True]
    assert kept(dets, None, 100.0) == [True, True]


# -- validation gate --------------------------------------------------------------


def test_gate_match_within_radius():
    truth = [(0, WorldPoint(10.0, 10.5))]
    out = outcome([(10.0, 10.0)], truth, fc=FilterConfig(0.0, 1.0))
    assert out == ({0: True}, 0)


def test_gate_miss_counts_false_alarm():
    truth = [(0, WorldPoint(20.0, 20.0))]
    out = outcome([(10.0, 10.0)], truth, fc=FilterConfig(0.0, 1.0))
    assert out == ({0: False}, 1)


def test_gate_mixed_match_and_false_alarm():
    dets = [(0.0, 0.0), (3.0, 0.0)]
    out = outcome(dets, [(0, WorldPoint(0.0, 0.0))], fc=FilterConfig(0.0, 2.0))
    assert out == ({0: True}, 1)


def test_gate_boundary_tie_is_inside():
    truth = [(0, WorldPoint(0.0, 0.0))]
    out = outcome([(2.0, 0.0)], truth, fc=FilterConfig(0.0, 2.0))
    assert out == ({0: True}, 0)


def test_gate_one_detection_can_cover_two_targets():
    truth = [(0, WorldPoint(0.0, 0.0)), (1, WorldPoint(1.0, 0.0))]
    out = outcome([(0.5, 0.0)], truth, fc=FilterConfig(0.0, 1.0))
    assert out == ({0: True, 1: True}, 0)


# -- mask then gate ---------------------------------------------------------------


def test_mask_runs_before_gate(unit_map):
    # The detection is within the gate of the target but also within the
    # dilated building, so masking removes it before gating can match it.
    dets = [(10.5, 5.0)]
    truth = [(0, WorldPoint(12.0, 5.0))]
    masked = outcome(dets, truth, unit_map, FilterConfig(1.0, 3.0, mask_enabled=True))
    assert masked == ({0: False}, 0)
    unmasked = outcome(dets, truth, unit_map, FilterConfig(1.0, 3.0, mask_enabled=False))
    assert unmasked == ({0: True}, 0)


def test_mask_disabled_equals_plain_gating(default_scenario):
    frames = generate_frames(default_scenario, realization_rng(7, 5))[:3]
    fc = FilterConfig(mask_margin_g=4.0, gate_g_det=3.0, mask_enabled=False)
    for frame in frames:
        with_map = frame_outcome(frame, default_scenario.static_map, fc)
        assert with_map == frame_outcome(frame, None, fc)


def test_clutter_inside_building_is_masked_at_zero_margin(unit_map):
    clutter = Frame(t=0, detections=columns_of([(5.0, 5.0)], clutter=[True]), truth=())
    assert frame_outcome(clutter, unit_map, FilterConfig(0.0, 3.0)) == ({}, 0)


def test_mask_survival_matches_area_ratio(default_scenario, rng):
    # Uniform points survive the g=0 mask in proportion to the open area:
    # 1 - 2100 / 14400.  Binomial three-sigma band around that.
    n = 1_000
    xy = rng.uniform((0.0, 0.0), (120.0, 120.0), (n, 2))
    _, n_kept = outcome(xy, (), default_scenario.static_map, FilterConfig(0.0, 3.0))
    p = 1.0 - 2100.0 / 14400.0
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(n_kept / n - p) <= 3.0 * sigma


# -- batch kernel ---------------------------------------------------------------


def _mixed_frames() -> list[Frame]:
    cfg = ScenarioConfig(t_steps=10, clutter=ClutterModel(lambda_fa=20.0))
    scenario = build_scenario(cfg)
    frames = generate_frames(scenario, realization_rng(scenario.seed, 1))
    frames[3] = Frame(t=3, detections=columns_of([]), truth=frames[3].truth)
    frames[6] = Frame(t=6, detections=frames[6].detections, truth=())
    return frames


def _batch_matches_loop(frames, static_map, fc):
    fd = precompute_distances(frames, static_map)
    for t, frame in enumerate(frames):
        pd, _, fa = brute_force_metrics([frame], static_map, fc)
        detected, n_fa = frame_outcome(frame, static_map, fc)
        assert n_fa == fa, (t, fc)
        assert detected == {tid: hit_rate == 1.0 for tid, hit_rate in pd.items()}, (t, fc)
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
    # One row per detection in frame order; a target outside the area in a
    # detection's frame is padded with +inf.
    frames = _mixed_frames()
    static_map = build_scenario(ScenarioConfig()).static_map
    fd = precompute_distances(frames, static_map)
    n_det = sum(len(f.detections) for f in frames)
    assert fd.map_dist_sq.shape == (n_det,)
    assert fd.target_dist_sq.shape == (n_det, len(fd.target_ids))
    assert fd.target_inbounds.shape == (10, len(fd.target_ids))
    assert fd.frame_of.tolist() == [t for t, f in enumerate(frames) for _ in f.detections.xy]
    for d, t in enumerate(fd.frame_of.tolist()):
        in_frame = {tid for tid, _ in frames[t].truth}
        for n, tid in enumerate(fd.target_ids):
            assert np.isinf(fd.target_dist_sq[d, n]) == (tid not in in_frame)
            assert fd.target_inbounds[t, n] == (tid in in_frame)
    assert not np.isinf(fd.map_dist_sq).any()
    assert fd.target_ids == tuple(sorted(fd.target_ids))


def test_precompute_empty_frames():
    frames = [Frame(t=t, detections=columns_of([]), truth=()) for t in (0, 1)]
    static_map = StaticMap((), Rect(-10.0, -10.0, 10.0, 10.0))
    fd = precompute_distances(frames, static_map)
    assert fd.map_dist_sq.shape == (0,)
    assert fd.target_inbounds.shape == (2, 0)
    assert fd.target_ids == ()
    result = fused_metrics(fd, FilterConfig(1.0, 3.0))
    assert result.pd_per_target == {} and result.fa_avg == 0.0


# -- whole-grid kernel ------------------------------------------------------------

GRID_MAP = StaticMap((Rect(0.0, 0.0, 10.0, 10.0),), Rect(-50.0, -50.0, 50.0, 50.0))
GRID_G = (0.0, 1.0, 2.0, 2.5, 3.0)
GRID_G_DET = (1.0, 2.0, 3.0)
# Gate lists as the kernel may be given them: sorted, unsorted, with
# duplicates, and a single gate.
GRID_G_DET_LISTS = (GRID_G_DET, (3.0, 1.0, 2.0), (2.0, 2.0, 1.0, 2.0), (3.0,))

# Integer coordinates around the building make exact ties at g and g_det common.
_coord = st.integers(-4, 16).map(float)
_point = st.tuples(_coord, _coord)
_frame = st.tuples(
    st.lists(_point, max_size=6),
    st.dictionaries(st.integers(0, 3), _point, max_size=3),
)


def _same(a, b):
    return (
        a.pd_per_target == b.pd_per_target
        and a.fa_avg == b.fa_avg
        and a.excluded_targets == b.excluded_targets
        and (a.pd_avg == b.pd_avg or (math.isnan(a.pd_avg) and math.isnan(b.pd_avg)))
    )


@settings(max_examples=150, deadline=None)
@given(
    raw_frames=st.lists(_frame, min_size=1, max_size=5),
    use_map=st.booleans(),
    g_dets=st.sampled_from(GRID_G_DET_LISTS),
)
@example(
    # (13, 5) is exactly 3 from the building and exactly 2 from target 0;
    # then an empty frame and a frame with no truth.
    raw_frames=[([(13.0, 5.0)], {0: (13.0, 7.0)}), ([], {}), ([(12.0, 5.0)], {})],
    use_map=True,
    g_dets=GRID_G_DET,
)
@example(
    # Unsorted gates; the detection is exactly on the middle gate's radius
    # from target 0: matched at 2, a miss and a false alarm at 1.
    raw_frames=[([(-2.0, 14.0)], {0: (0.0, 14.0)})],
    use_map=True,
    g_dets=(3.0, 1.0, 2.0),
)
@example(
    # Duplicated gates; the pair is exactly on the widest gate.
    raw_frames=[([(14.0, 14.0)], {1: (14.0, 16.0)})],
    use_map=True,
    g_dets=(2.0, 2.0, 1.0, 2.0),
)
@example(
    # One gate, with a pair exactly on it; the target stays unmatched in the
    # second frame.
    raw_frames=[([(12.0, 0.0)], {2: (15.0, 0.0)}), ([], {2: (15.0, 1.0)})],
    use_map=True,
    g_dets=(3.0,),
)
def test_grid_kernel_matches_one_cell_kernel_and_brute_force(raw_frames, use_map, g_dets):
    frames = [
        Frame(
            t=t,
            detections=columns_of(dets),
            truth=tuple((tid, WorldPoint(x, y)) for tid, (x, y) in sorted(truth.items())),
        )
        for t, (dets, truth) in enumerate(raw_frames)
    ]
    static_map = GRID_MAP if use_map else None
    oracle_map = GRID_MAP if use_map else StaticMap((), GRID_MAP.bounds)
    fd = precompute_distances(frames, static_map)
    # Every gate with the baseline cell (mask off) and every margin, in one call.
    cells = [
        FilterConfig(g, g_det, mask_enabled)
        for g_det in g_dets
        for g, mask_enabled in [(0.0, False)] + [(g, True) for g in GRID_G]
    ]
    grid = grid_metrics(fd, cells)
    assert len(grid) == len(cells)
    for fc, result in zip(cells, grid):
        assert _same(result, fused_metrics(fd, fc)), fc
        pd, pd_avg, fa = brute_force_metrics(frames, oracle_map, fc)
        assert result.pd_per_target == pd and result.fa_avg == fa, fc
        assert result.pd_avg == pd_avg or (math.isnan(pd_avg) and math.isnan(result.pd_avg))


# -- the grid's Pd arrays ----------------------------------------------------------


def _counted_results(fd, configs):
    """Brute-force counters per cell, finalized by ``result_from_counts``."""
    steps = fd.target_inbounds.sum(axis=0).tolist()
    results = []
    for fc in configs:
        kept = fd.map_dist_sq > (fc.mask_margin_g**2 if fc.mask_enabled else -math.inf)
        within = fd.target_dist_sq <= fc.gate_g_det**2
        successes = [
            len({t for t, k, w in zip(fd.frame_of.tolist(), kept, within[:, n]) if k and w})
            for n in range(len(fd.target_ids))
        ]
        fa = int(np.sum(kept & ~within.any(axis=1)))
        results.append(
            result_from_counts(fd.target_ids, successes, steps, fa, len(fd.target_inbounds))
        )
    return results


_d2 = st.sampled_from([0.0, 1.0, 2.25, 4.0, 6.25, 9.0, 30.0, math.inf])


@st.composite
def _hand_distances(draw):
    n_frames = draw(st.integers(1, 6))
    n_targets = draw(st.integers(0, 12))
    n_det = draw(st.integers(0, 20))

    def cells(elements, size):
        return draw(st.lists(elements, min_size=size, max_size=size))

    inbounds = np.array(cells(st.booleans(), n_frames * n_targets), dtype=bool)
    inbounds = inbounds.reshape(n_frames, n_targets)
    frame_of = np.array(cells(st.integers(0, n_frames - 1), n_det), dtype=np.intp)
    dist = np.array(cells(_d2, n_det * n_targets)).reshape(n_det, n_targets)
    return FrameDistances(
        map_dist_sq=np.array(cells(_d2, n_det)),
        target_dist_sq=np.where(inbounds[frame_of], dist, np.inf),
        frame_of=frame_of,
        target_inbounds=inbounds,
        target_ids=tuple(range(10, 10 + 3 * n_targets, 3)),
    )


@settings(max_examples=200, deadline=None)
@given(
    fd=_hand_distances(),
    g_dets=st.sampled_from([(1.0, 1.5, 3.0), (3.0, 1.0, 1.5), (1.5, 1.5, 3.0, 1.5), (1.5,)]),
)
@example(
    # Detection 0 is exactly on the middle gate (1.5) from target 10, and
    # detection 1 exactly on the widest (3) from target 13: each is matched
    # at its gate and unmatched at the narrower ones.
    fd=FrameDistances(
        map_dist_sq=np.array([9.0, 30.0]),
        target_dist_sq=np.array([[2.25, 30.0], [np.inf, 9.0]]),
        frame_of=np.array([0, 1]),
        target_inbounds=np.array([[True, True], [False, True]]),
        target_ids=(10, 13),
    ),
    g_dets=(3.0, 1.5, 1.0),
)
@example(
    # One gate, with the only pair exactly on it.
    fd=FrameDistances(
        map_dist_sq=np.array([6.25, 0.0]),
        target_dist_sq=np.array([[2.25], [30.0]]),
        frame_of=np.array([0, 0]),
        target_inbounds=np.array([[True]]),
        target_ids=(10,),
    ),
    g_dets=(1.5,),
)
def test_grid_pd_arrays_equal_result_from_counts(fd, g_dets):
    # Up to 12 targets, some possibly never in the area (the zero-step case).
    configs = [
        FilterConfig(g, g_det, mask_enabled)
        for g_det in g_dets
        for g, mask_enabled in [(0.0, False), (0.0, True), (1.0, True), (2.5, True)]
    ]
    grid = grid_metrics(fd, configs)
    for fc, result, expected in zip(configs, grid, _counted_results(fd, configs)):
        assert _same(result, expected), fc
        assert list(result.pd_per_target) == list(expected.pd_per_target), fc


def test_grid_with_no_observable_target_has_nan_pd_without_warnings():
    fd = FrameDistances(
        map_dist_sq=np.array([4.0, 25.0]),
        target_dist_sq=np.empty((2, 0)),
        frame_of=np.array([0, 1]),
        target_inbounds=np.empty((3, 0), dtype=bool),
        target_ids=(),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = grid_metrics(fd, [FilterConfig(0.0, 3.0), FilterConfig(3.0, 3.0)])
    assert [r.pd_per_target for r in results] == [{}, {}]
    assert all(math.isnan(r.pd_avg) for r in results)
    assert [r.fa_avg for r in results] == [2 / 3, 1 / 3]


def test_grid_excludes_a_target_with_no_steps(caplog):
    # Target 5 is never in the area: excluded from pd_avg, with a warning.
    inbounds = np.array([[True, False, True], [True, False, False]])
    fd = FrameDistances(
        map_dist_sq=np.array([16.0, 16.0, 16.0]),
        target_dist_sq=np.array(
            [[1.0, np.inf, 1.0], [np.inf, np.inf, np.inf], [1.0, np.inf, np.inf]]
        ),
        frame_of=np.array([0, 0, 1]),
        target_inbounds=inbounds,
        target_ids=(3, 5, 9),
    )
    with caplog.at_level(logging.WARNING, logger="sensefuse.metrics"):
        (result,) = grid_metrics(fd, [FilterConfig(0.0, 2.0)])
    assert result.excluded_targets == (5,)
    assert result.pd_per_target == {3: 1.0, 9: 1.0}
    assert result.pd_avg == 1.0 and result.fa_avg == 0.5
    assert "excluded from pd_avg" in caplog.text


@pytest.mark.parametrize("n_cells", [0, 2])
def test_grid_on_zero_frames_raises(n_cells):
    fd = FrameDistances(
        map_dist_sq=np.empty(0),
        target_dist_sq=np.empty((0, 0)),
        frame_of=np.empty(0, dtype=np.intp),
        target_inbounds=np.empty((0, 0), dtype=bool),
        target_ids=(),
    )
    with pytest.raises(EmptyRunError):
        grid_metrics(fd, [FilterConfig(0.0, 3.0), FilterConfig(1.0, 2.0)][:n_cells])
