import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from sensefuse.errors import ConfigError, DegenerateGeometryError
from sensefuse.geometry import Rect, StaticMap, WorldPoint
from sensefuse.measurement import DetectionColumns, NoiseModel, Pose
from sensefuse.scenario import (
    DEFAULT_BOUNDS,
    POISSON_LAM_MAX,
    ClutterModel,
    Frame,
    ScenarioConfig,
    TargetTrack,
    build_scenario,
    default_tracks,
    generate_frames,
    generate_realization,
    realization_rng,
)

from oracles import (
    build_detection,
    clutter_frame,
    generate_clutter,
    generate_frame,
    min_distance,
    rect_contains,
    sample_measurement,
    target_position,
)


# -- tracks ---------------------------------------------------------------------


def test_target_position_constant_velocity():
    east = TargetTrack(0, WorldPoint(0.0, 60.0), (1.0, 0.0), "horizontal")
    assert target_position(east, 0) == WorldPoint(0.0, 60.0)
    assert target_position(east, 10) == WorldPoint(10.0, 60.0)
    north = TargetTrack(1, WorldPoint(60.0, 0.0), (0.0, 2.0), "vertical")
    assert target_position(north, 30) == WorldPoint(60.0, 60.0)


def test_target_position_rejects_negative_step():
    track = TargetTrack(0, WorldPoint(0.0, 60.0), (1.0, 0.0), "horizontal")
    with pytest.raises(ValueError):
        target_position(track, -1)


def test_track_rejects_zero_velocity_and_bad_axis():
    with pytest.raises(ValueError):
        TargetTrack(0, WorldPoint(0.0, 0.0), (0.0, 0.0), "horizontal")
    with pytest.raises(ValueError):
        TargetTrack(0, WorldPoint(0.0, 0.0), (1.0, 0.0), "diagonal")


def test_default_tracks_stay_in_bounds_and_clear_of_buildings():
    scenario = build_scenario(ScenarioConfig())
    tracks = scenario.tracks
    assert len(tracks) == 8
    clearances = []
    for track in tracks:
        per_track = []
        for t in range(scenario.t_steps):
            pos = target_position(track, t)
            assert rect_contains(scenario.bounds, pos)
            per_track.append(min_distance(scenario.static_map, pos))
        clearances.append(min(per_track))
    # No lane enters a building and each keeps at least 5 m of clearance;
    # the mid street between the buildings is deliberately closer than 10 m
    # so masking with a large margin has something to trade against.
    assert all(c >= 5.0 - 1e-9 for c in clearances)
    assert min(clearances) < 10.0


def test_default_tracks_rejects_more_targets_than_lanes():
    with pytest.raises(ConfigError, match="explicit tracks"):
        default_tracks(9, DEFAULT_BOUNDS)
    with pytest.raises(ConfigError, match="explicit tracks"):
        build_scenario(ScenarioConfig(n_targets=9))


# -- build_scenario -------------------------------------------------------------


def test_build_scenario_is_deterministic():
    a = build_scenario(ScenarioConfig())
    b = build_scenario(ScenarioConfig())
    assert a == b
    assert a.se_ids == ("se-0", "se-1")


def test_build_scenario_collects_all_violations():
    cfg = ScenarioConfig(p_det=2.0, t_steps=0, seed=-1)
    with pytest.raises(ConfigError) as err:
        build_scenario(cfg)
    message = str(err.value)
    assert "p_det" in message
    assert "t_steps" in message
    assert "seed" in message


def test_build_scenario_rejects_pose_outside_bounds():
    from sensefuse.measurement import Pose

    cfg = ScenarioConfig(se_poses=(Pose(200.0, 0.0, 0.0),))
    with pytest.raises(ConfigError, match="outside the bounds"):
        build_scenario(cfg)


def test_build_scenario_requires_a_sensing_entity():
    # The call flow tasks every SE of the scenario and never checks for none.
    with pytest.raises(ConfigError, match="at least one pose"):
        build_scenario(ScenarioConfig(se_poses=()))


def test_build_scenario_rejects_duplicate_track_ids():
    track = TargetTrack(0, WorldPoint(1.0, 1.0), (1.0, 0.0), "horizontal")
    with pytest.raises(ConfigError, match="unique"):
        build_scenario(ScenarioConfig(tracks=(track, track)))


def test_build_scenario_rejects_track_that_never_enters():
    outside = TargetTrack(0, WorldPoint(500.0, 500.0), (1.0, 0.0), "horizontal")
    with pytest.raises(ConfigError, match="never enter"):
        build_scenario(ScenarioConfig(tracks=(outside,)))


def test_build_scenario_rejects_se_on_a_track():
    # Track 0 enters at (0, 15); track 3 (x = 10, southbound) passes (10, 60)
    # at step 50.  An SE beside a lane, or on it where the target would only
    # arrive after the last step, is fine.
    poses = (Pose(0.0, 15.0, 0.0), Pose(120.0, 0.0, 0.0), Pose(10.0, 60.0, 1.0))
    with pytest.raises(ConfigError) as err:
        build_scenario(ScenarioConfig(se_poses=poses))
    assert err.value.violations == [
        "se_poses[0] at (0.0, 15.0) lies on track 0 at step 0",
        "se_poses[2] at (10.0, 60.0) lies on track 3 at step 50",
    ]
    build_scenario(ScenarioConfig(se_poses=(Pose(0.0, 15.6, 0.0), Pose(120.0, 0.0, 0.0))))
    # Track 0 would reach x = 120 at step 100.
    build_scenario(ScenarioConfig(se_poses=(Pose(0.0, 0.0, 0.0), Pose(120.0, 15.0, 0.0))))


def test_generator_rejects_target_at_the_se_position():
    # A hand-built scenario skips build_scenario's check; the generator's own
    # zero-range guard still stops it with a typed error.
    cfg = ScenarioConfig(p_det=1.0, n_targets=1, clutter=ClutterModel(lambda_fa=0.0))
    scenario = dataclasses.replace(
        build_scenario(cfg), se_poses=(Pose(0.0, 0.0, 0.0), Pose(6.0, 15.0, 0.0))
    )
    with pytest.raises(DegenerateGeometryError, match=r"\(6.0, 15.0\)"):
        generate_realization(scenario, realization_rng(scenario.seed, 0))


def test_generator_raises_on_the_oracles_draw():
    # Track 0 reaches the second SE at step 5.  Both generators stop after
    # the p_det draw of that (SE, target) pair, five frames of hits and
    # clutter in, with the stream in the same state.
    cfg = ScenarioConfig(p_det=0.9, n_targets=2)
    scenario = dataclasses.replace(
        build_scenario(cfg), se_poses=(Pose(0.0, 0.0, 0.0), Pose(6.0, 15.0, 0.0))
    )
    rng, rng_rz = realization_rng(4, 0), realization_rng(4, 0)
    with pytest.raises(DegenerateGeometryError, match=r"\(6.0, 15.0\)"):
        for t in range(scenario.t_steps):
            scalar_frame(scenario, t, rng)
    with pytest.raises(DegenerateGeometryError, match=r"\(6.0, 15.0\)"):
        generate_realization(scenario, rng_rz)
    assert t == 5
    assert rng_rz.bit_generator.state == rng.bit_generator.state


# -- frame generation -----------------------------------------------------------


def test_generate_frames_bitwise_reproducible():
    scenario = build_scenario(ScenarioConfig(t_steps=20))
    a = generate_frames(scenario, realization_rng(scenario.seed, 3))
    b = generate_frames(scenario, realization_rng(scenario.seed, 3))
    assert a == b


def test_generate_frames_differ_across_realizations():
    scenario = build_scenario(ScenarioConfig(t_steps=5))
    a = generate_frames(scenario, realization_rng(scenario.seed, 3))
    b = generate_frames(scenario, realization_rng(scenario.seed, 4))
    assert a != b


def test_perfect_detection_yields_one_detection_per_se():
    cfg = ScenarioConfig(p_det=1.0, n_targets=1, clutter=ClutterModel(lambda_fa=0.0))
    scenario = build_scenario(cfg)
    frames = generate_frames(scenario, realization_rng(scenario.seed, 0))
    for frame in frames:
        assert len(frame.truth) == 1
        assert len(frame.detections) == 2
        assert set(frame.detections.sources()) == {"se-0", "se-1"}
        assert not frame.detections.is_clutter.any()


def test_zero_detection_probability_leaves_only_clutter():
    scenario = build_scenario(ScenarioConfig(p_det=0.0))
    frames = generate_frames(scenario, realization_rng(scenario.seed, 0))
    assert all(len(f.truth) == 8 for f in frames)
    assert all(f.detections.is_clutter.all() for f in frames)


def test_zero_targets_yield_empty_truth():
    scenario = build_scenario(ScenarioConfig(n_targets=0))
    frames = generate_frames(scenario, realization_rng(scenario.seed, 0))
    assert all(f.truth == () for f in frames)
    assert all(f.detections.is_clutter.all() for f in frames)


def test_zero_clutter_rate_yields_no_clutter():
    scenario = build_scenario(ScenarioConfig(clutter=ClutterModel(lambda_fa=0.0)))
    frames = generate_frames(scenario, realization_rng(scenario.seed, 0))
    assert not any(f.detections.is_clutter.any() for f in frames)


def test_truth_excludes_targets_after_they_leave():
    # In bounds at t=0, out at t=1 (x = 119.5 + 1.2).
    track = TargetTrack(0, WorldPoint(119.5, 60.0), (1.2, 0.0), "horizontal")
    cfg = ScenarioConfig(tracks=(track,), p_det=1.0, clutter=ClutterModel(lambda_fa=0.0))
    scenario = build_scenario(cfg)
    rng = realization_rng(scenario.seed, 0)
    frame0 = generate_frame(scenario, 0, rng)
    frame1 = generate_frame(scenario, 1, rng)
    assert len(frame0.truth) == 1 and len(frame0.detections) == 2
    assert frame1.truth == () and len(frame1.detections) == 0


def frame_counts(scenario, rng, n_frames):
    """Detections per frame of consecutive realizations drawn from one stream.

    A realization draws its frames one after another, so this is the count
    sequence of ``n_frames`` calls of ``generate_frame(scenario, t % T, rng)``.
    """
    realizations = math.ceil(n_frames / scenario.t_steps)
    counts = [
        np.bincount(generate_realization(scenario, rng).frame_of, minlength=scenario.t_steps)
        for _ in range(realizations)
    ]
    return np.concatenate(counts)[:n_frames].tolist()


def test_detection_count_matches_binomial_mean():
    # 8 targets x 2 SEs x p_det=0.95: per-frame count ~ Binomial(16, 0.95).
    scenario = build_scenario(ScenarioConfig(clutter=ClutterModel(lambda_fa=0.0)))
    rng = realization_rng(scenario.seed, 11)
    n_frames = 5_000
    counts = frame_counts(scenario, rng, n_frames)
    mean = float(np.mean(counts))
    sigma = math.sqrt(16 * 0.95 * 0.05 / n_frames)
    assert abs(mean - 15.2) <= 3.0 * sigma


def test_detection_count_is_additive_with_clutter():
    # Targets contribute 15.2 on average, clutter 60; variances add too.
    scenario = build_scenario(ScenarioConfig())
    rng = realization_rng(scenario.seed, 12)
    n_frames = 2_000
    counts = frame_counts(scenario, rng, n_frames)
    mean = float(np.mean(counts))
    sigma = math.sqrt((16 * 0.95 * 0.05 + 60.0) / n_frames)
    assert abs(mean - 75.2) <= 3.0 * sigma


# -- columnar realization ---------------------------------------------------------

AGREEMENT_CASES = [
    (7, ScenarioConfig(t_steps=20)),
    (11, ScenarioConfig(t_steps=20, seed=11)),
    (
        2026,
        ScenarioConfig(
            t_steps=20,
            seed=2026,
            se_poses=(Pose(0.0, 0.0, 0.3), Pose(120.0, 0.0, -2.5), Pose(60.0, 120.0, 3.0)),
        ),
    ),
]


# An empty map (all clutter uniform), no targets, p_det 0 and 1, and headings
# away from 0.
EDGE_CASES = [
    (5, ScenarioConfig(t_steps=12, static_map=StaticMap((), DEFAULT_BOUNDS))),
    (6, ScenarioConfig(t_steps=12, n_targets=0)),
    (8, ScenarioConfig(t_steps=12, p_det=0.0)),
    (
        9,
        ScenarioConfig(
            t_steps=12, p_det=1.0, se_poses=(Pose(30.0, 110.0, -2.0), Pose(120.0, 60.0, math.pi))
        ),
    ),
]


def scalar_frame(scenario, t, rng):
    """Oracle: one frame built point by point."""
    truth = tuple(
        (track.id, pos)
        for track in scenario.tracks
        if rect_contains(scenario.bounds, pos := target_position(track, t))
    )
    rows = []  # (x, y, SE index, clutter flag) per detection
    for s, pose in enumerate(scenario.se_poses):
        for _, pos in truth:
            if rng.random() < scenario.p_det:
                z = sample_measurement(pose, pos, scenario.noise, rng)
                point, _ = build_detection(pose, z, scenario.noise)
                rows.append((point.x, point.y, s, False))
    xy = generate_clutter(scenario.clutter, scenario.static_map, scenario.bounds, rng)
    for i, (x, y) in enumerate(xy.tolist()):
        rows.append((x, y, i % len(scenario.se_poses), True))
    detections = DetectionColumns(
        xy=np.array([(x, y) for x, y, *_ in rows]).reshape(-1, 2),
        se_idx=np.array([s for *_, s, _ in rows], dtype=np.intp),
        se_ids=scenario.se_ids,
        is_clutter=np.array([flag for *_, flag in rows], dtype=bool),
    )
    return Frame(t=t, detections=detections, truth=truth)


@pytest.mark.parametrize("seed,cfg", AGREEMENT_CASES)
def test_realization_columns_match_frames(seed, cfg):
    scenario = build_scenario(cfg)
    rz = generate_realization(scenario, realization_rng(seed, 0))
    frames = generate_frames(scenario, realization_rng(seed, 0))
    assert rz.truth_in.shape == (cfg.t_steps, len(scenario.tracks)) == (len(frames), 8)
    assert np.all(np.diff(rz.frame_of) >= 0)
    for i, frame in enumerate(frames):
        rows = np.flatnonzero(rz.frame_of == i)
        dets = frame.detections
        assert dets.xy.tobytes() == rz.xy[rows].tobytes()
        assert dets.sources() == [scenario.se_ids[s] for s in rz.se_idx[rows]]
        assert dets.is_clutter.tolist() == rz.is_clutter[rows].tolist()
        truth = tuple(
            (track.id, WorldPoint(x, y))
            for track, (x, y), inside in zip(scenario.tracks, rz.truth_xy[i].tolist(), rz.truth_in[i])
            if inside
        )
        assert frame.truth == truth


@pytest.mark.parametrize("seed,cfg", AGREEMENT_CASES + EDGE_CASES)
def test_frames_match_scalar_oracle(seed, cfg):
    # Same points to the bit.
    scenario = build_scenario(cfg)
    rng = realization_rng(seed, 0)
    expected = [scalar_frame(scenario, t, rng) for t in range(cfg.t_steps)]
    assert generate_frames(scenario, realization_rng(seed, 0)) == expected
    rng_a, rng_b = realization_rng(seed, 1), realization_rng(seed, 1)
    for t in (3, 0, 3):
        assert generate_frame(scenario, t, rng_a) == scalar_frame(scenario, t, rng_b)


def test_range_redraws_match_scalar_oracle():
    # With sigma_r = 40 m against ranges from 15 m, this realization redraws
    # 22 non-positive ranges across its 149 target hits.
    scenario = build_scenario(ScenarioConfig(t_steps=10, noise=NoiseModel(40.0, 0.3)))
    rng = realization_rng(5, 0)
    expected = [scalar_frame(scenario, t, rng) for t in range(10)]
    assert generate_frames(scenario, realization_rng(5, 0)) == expected


# -- clutter --------------------------------------------------------------------


def test_clutter_count_is_poisson():
    scenario = build_scenario(ScenarioConfig())
    rng = realization_rng(0, 0)
    n_frames = 2_000
    counts = np.array(
        [
            len(generate_clutter(scenario.clutter, scenario.static_map, scenario.bounds, rng))
            for _ in range(n_frames)
        ]
    )
    mean = counts.mean()
    assert abs(mean - 60.0) <= 3.0 * math.sqrt(60.0 / n_frames)

    # Chi-square goodness of fit against Poisson(60).  Bin i covers counts in
    # (edges[i], edges[i+1]]; the open tails keep every expected count above 5.
    edges = np.array([-1] + list(range(42, 79)) + [10**9])
    observed, _ = np.histogram(counts, bins=edges + 0.5)
    expected = np.diff(stats.poisson.cdf(edges, 60.0)) * n_frames
    assert expected.min() >= 5.0
    result = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert result.pvalue > 0.01


def test_clutter_concentrates_near_building_edges():
    # With edge_fraction=0.7 and jitter sigma=1, about 0.7 * 0.996 of the
    # points land within 3 m of a building, plus a uniform share equal to the
    # 3 m dilated building area over the bounds area (about 2936 / 14400), so
    # roughly 0.76 in total.  Uniform-only would give 0.20, all-edge 1.0.
    scenario = build_scenario(ScenarioConfig(clutter=ClutterModel(lambda_fa=100_000.0)))
    rng = realization_rng(0, 1)
    xy = generate_clutter(scenario.clutter, scenario.static_map, scenario.bounds, rng)
    near = scenario.static_map.min_distance_sq_many(xy) <= 9.0
    fraction = float(near.mean())
    assert 0.70 <= fraction <= 0.82


def test_clutter_pure_edge_points_hug_the_boundaries():
    clutter = ClutterModel(lambda_fa=500.0, edge_fraction=1.0, edge_jitter_sigma=0.05)
    scenario = build_scenario(ScenarioConfig(clutter=clutter))
    rng = realization_rng(0, 2)
    points = generate_clutter(clutter, scenario.static_map, scenario.bounds, rng)
    assert len(points) > 0
    for x, y in points.tolist():
        assert min_distance(scenario.static_map, WorldPoint(x, y)) <= 0.5


def test_clutter_respects_bounds_under_heavy_jitter():
    # A building flush with the bounds forces the resample-then-clamp path.
    bounds = Rect(0.0, 0.0, 40.0, 40.0)
    static_map = StaticMap((Rect(0.0, 0.0, 40.0, 40.0),), bounds)
    clutter = ClutterModel(lambda_fa=500.0, edge_fraction=1.0, edge_jitter_sigma=5.0)
    rng = realization_rng(0, 3)
    points = generate_clutter(clutter, static_map, bounds, rng)
    assert len(points) > 0
    for x, y in points.tolist():
        assert rect_contains(bounds, WorldPoint(x, y))


def test_clutter_empty_map_falls_back_to_uniform(caplog):
    bounds = DEFAULT_BOUNDS
    static_map = StaticMap((), bounds)
    clutter = ClutterModel(lambda_fa=200.0, edge_fraction=0.7)
    rng = realization_rng(0, 4)
    with caplog.at_level(logging.WARNING):
        points = generate_clutter(clutter, static_map, bounds, rng)
    assert "empty static map" in caplog.text
    assert len(points) > 0
    assert all(rect_contains(bounds, WorldPoint(x, y)) for x, y in points.tolist())


def test_empty_map_warns_once_per_realization(caplog):
    cfg = ScenarioConfig(t_steps=20, static_map=StaticMap((), DEFAULT_BOUNDS))
    scenario = build_scenario(cfg)
    with caplog.at_level(logging.WARNING, logger="sensefuse.scenario"):
        frames = generate_frames(scenario, realization_rng(3, 0))
    assert sum("empty static map" in r.getMessage() for r in caplog.records) == 1
    rng = realization_rng(3, 0)
    assert frames == [scalar_frame(scenario, t, rng) for t in range(20)]


_FLUSH_BOUNDS = Rect(0.0, 0.0, 40.0, 40.0)
_NEAR_FLUSH_BOUNDS = Rect(1e6, 1e6, 1e6 + 40.0, 1e6 + 40.0)
CLUTTER_CASES = {
    "default": ScenarioConfig(),
    "resample-and-clamp": ScenarioConfig(
        bounds=_FLUSH_BOUNDS,
        static_map=StaticMap((Rect(0.0, 0.0, 40.0, 40.0),), _FLUSH_BOUNDS),
        se_poses=(Pose(20.0, 20.0, 0.0),),
        clutter=ClutterModel(lambda_fa=200.0, edge_fraction=1.0, edge_jitter_sigma=5.0),
    ),
    "empty-map": ScenarioConfig(static_map=StaticMap((), DEFAULT_BOUNDS)),
    "uniform-only": ScenarioConfig(clutter=ClutterModel(edge_fraction=0.0)),
    "edge-only": ScenarioConfig(clutter=ClutterModel(edge_fraction=1.0, edge_jitter_sigma=0.05)),
    "sparse": ScenarioConfig(clutter=ClutterModel(lambda_fa=0.5)),
    # A building 1e-9 m (9 ulps) inside bounds at 1e6 m, with jitter of a
    # few ulps: jitter alone cannot clear a frame, and a sampler that trusted
    # its bound without the lerp's rounding as slack would let points out.
    "near-flush": ScenarioConfig(
        bounds=_NEAR_FLUSH_BOUNDS,
        static_map=StaticMap(
            (Rect(1e6 + 1e-9, 1e6 + 1e-9, 1e6 + 40.0 - 1e-9, 1e6 + 40.0 - 1e-9),),
            _NEAR_FLUSH_BOUNDS,
        ),
        se_poses=(Pose(1e6 + 20.0, 1e6 + 20.0, 0.0),),
        clutter=ClutterModel(lambda_fa=200.0, edge_fraction=0.9, edge_jitter_sigma=4e-10),
    ),
}


@pytest.mark.parametrize("cfg", CLUTTER_CASES.values(), ids=CLUTTER_CASES.keys())
def test_realization_clutter_matches_per_frame_oracle(cfg):
    # Without targets a realization is its frames' clutter, drawn by one
    # hoisted sampler; the oracle rebuilds everything on every frame.
    scenario = build_scenario(dataclasses.replace(cfg, n_targets=0, t_steps=25))
    for seed in range(4):
        rng, rng_rz = realization_rng(seed, 9), realization_rng(seed, 9)
        expected = [
            clutter_frame(scenario.clutter, scenario.static_map, scenario.bounds, rng)
            for _ in range(25)
        ]
        rz = generate_realization(scenario, rng_rz)
        assert rz.xy.tobytes() == np.concatenate(expected).tobytes()
        assert rz.frame_of.tolist() == [t for t, xy in enumerate(expected) for _ in xy]
        assert rng_rz.bit_generator.state == rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    clearance=st.sampled_from([0.0, 1e-9, 20.0]),
    origin=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    sigma=st.floats(0.05, 50.0),
    edge_fraction=st.floats(0.0, 1.0),
)
@example(seed=0, clearance=1e-9, origin=(1e6, -1e6), sigma=0.05, edge_fraction=1.0)
@example(seed=0, clearance=20.0, origin=(0.0, 0.0), sigma=5.0, edge_fraction=0.7)
def test_realization_clutter_matches_oracle_near_the_bounds(
    seed, clearance, origin, sigma, edge_fraction
):
    # A building inset by ``clearance`` on every side of 60 m bounds: flush,
    # within a few ulps at large coordinates, or well clear.  Whether jitter
    # can leave the bounds decides which frames the sampler places at once.
    ox, oy = origin
    bounds = Rect(ox, oy, ox + 60.0, oy + 60.0)
    building = Rect(ox + clearance, oy + clearance, ox + 60.0 - clearance, oy + 60.0 - clearance)
    cfg = ScenarioConfig(
        bounds=bounds,
        static_map=StaticMap((building,), bounds),
        se_poses=(Pose(ox + 30.0, oy + 30.0, 0.0),),
        n_targets=0,
        t_steps=8,
        clutter=ClutterModel(lambda_fa=30.0, edge_fraction=edge_fraction, edge_jitter_sigma=sigma),
    )
    scenario = build_scenario(cfg)
    rng, rng_rz = realization_rng(seed, 0), realization_rng(seed, 0)
    expected = [clutter_frame(scenario.clutter, scenario.static_map, bounds, rng) for _ in range(8)]
    rz = generate_realization(scenario, rng_rz)
    assert rz.xy.tobytes() == np.concatenate(expected).tobytes()
    assert rz.frame_of.tolist() == [t for t, xy in enumerate(expected) for _ in xy]
    assert rng_rz.bit_generator.state == rng.bit_generator.state


_bound = st.floats(-1e4, 1e4, allow_nan=False)
_span = st.floats(1e-3, 1e4, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 200),
    lo=st.tuples(_bound, _bound),
    span=st.tuples(_span, _span),
)
@example(seed=1, n=200, lo=(-37.5, -0.1), span=(120.3, 0.7))
def test_scaled_unit_draws_equal_rng_uniform(seed, n, lo, span):
    # The clutter sampler's uniform share relies on this identity.
    lo = np.array(lo)
    hi = lo + np.array(span)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = rng_a.uniform(lo, hi, (n, 2))
    assert (lo + (hi - lo) * rng_b.random((n, 2))).tobytes() == expected.tobytes()
    assert rng_b.bit_generator.state == rng_a.bit_generator.state


def test_poisson_lam_max_is_the_sampler_limit():
    # size=0 checks the mean and draws nothing.
    rng = np.random.default_rng(0)
    assert rng.poisson(POISSON_LAM_MAX, size=0).shape == (0,)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(math.nextafter(POISSON_LAM_MAX, math.inf), size=0)


def test_clutter_model_validation():
    with pytest.raises(ValueError):
        ClutterModel(lambda_fa=-1.0)
    with pytest.raises(ValueError):
        ClutterModel(lambda_fa=math.nextafter(POISSON_LAM_MAX, math.inf))
    ClutterModel(lambda_fa=POISSON_LAM_MAX)
    with pytest.raises(ValueError):
        ClutterModel(edge_fraction=1.5)
    with pytest.raises(ValueError):
        ClutterModel(edge_jitter_sigma=0.0)
