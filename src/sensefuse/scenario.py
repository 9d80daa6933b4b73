"""Ground-truth scenario generation.

A scenario is a rectangular sensing area with a static building map, a ring of
sensing entities, and straight-line targets crossing the junction.  Each step
produces a frame: per-SE noisy detections of every in-area target plus a
Poisson batch of clutter detections concentrated near building edges.

A realization is generated as flat arrays (:class:`Realization`), which is all
the sweep and the call flow's fusion read.  Per-detection objects with
covariances are built from those arrays by :func:`realization_detections`,
for the call flow's raw archive record and for the ``Frame`` view of
:func:`generate_frames`, which serves tests and the acceptance criteria.

Clutter points model spurious detections (multipath and ghost returns), so
the sampled world position *is* the realized detection; the polar pipeline is
still consulted for the source SE's viewing geometry and covariance, but no
second noise draw is applied on top of the spatial jitter.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .geometry import Rect, StaticMap, WorldPoint
from .measurement import (
    NoiseModel,
    Pose,
    WorldDetection,
    polar_to_world,
    rotated_covariance,
    sample_measurement,
    world_covariance,
    world_to_polar,
)

log = logging.getLogger(__name__)

# Default junction furniture: two buildings flanking a central vertical
# street, with open corridors along the south, north, west and east sides.
DEFAULT_BOUNDS = Rect(0.0, 0.0, 120.0, 120.0)
DEFAULT_BUILDINGS = (Rect(20.0, 45.0, 55.0, 75.0), Rect(65.0, 45.0, 100.0, 75.0))
DEFAULT_SPEED = 1.2  # meters per step

# Default lanes as (orientation, cross-axis position as a fraction of the
# bounds, direction sign).  On the default map these are street positions
# clear of both buildings.  The mid street between the buildings has only
# 5 m of clearance on each side, so detections of the target driving it can
# fall inside a dilated footprint; every other lane keeps 10 m or more.
_DEFAULT_LANES = (
    ("horizontal", 0.125, 1.0),  # y = 15, south corridor, eastbound
    ("vertical", 0.5, 1.0),  # x = 60, mid street between the buildings, northbound
    ("horizontal", 0.875, -1.0),  # y = 105, north corridor, westbound
    ("vertical", 1.0 / 12.0, -1.0),  # x = 10, west edge road, southbound
    ("horizontal", 5.0 / 24.0, 1.0),  # y = 25, eastbound
    ("vertical", 11.0 / 12.0, 1.0),  # x = 110, east edge road, northbound
    ("horizontal", 19.0 / 24.0, -1.0),  # y = 95, westbound
    ("horizontal", 7.0 / 24.0, -1.0),  # y = 35, westbound
)


@dataclass(frozen=True, slots=True)
class TargetTrack:
    """Constant-velocity target: position(t) = start + t * velocity."""

    id: int
    start: WorldPoint
    velocity: tuple[float, float]
    axis: str  # "horizontal" | "vertical", a label only

    def __post_init__(self) -> None:
        vx, vy = self.velocity
        if not (math.isfinite(vx) and math.isfinite(vy)) or (vx == 0.0 and vy == 0.0):
            raise ValueError(f"track velocity must be finite and nonzero, got {self.velocity}")
        if self.axis not in ("horizontal", "vertical"):
            raise ValueError(f"track axis must be 'horizontal' or 'vertical', got {self.axis!r}")


def target_position(track: TargetTrack, t: int) -> WorldPoint:
    """Target position at integer step t >= 0."""
    if t < 0:
        raise ValueError(f"step index must be >= 0, got {t}")
    return WorldPoint(
        track.start.x + t * track.velocity[0],
        track.start.y + t * track.velocity[1],
    )


@dataclass(frozen=True, slots=True)
class ClutterModel:
    """Per-frame Poisson clutter: mean count, edge concentration, edge jitter."""

    lambda_fa: float = 60.0
    edge_fraction: float = 0.7
    edge_jitter_sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_fa) and self.lambda_fa >= 0.0):
            raise ValueError(f"lambda_fa must be finite and >= 0, got {self.lambda_fa}")
        if not (0.0 <= self.edge_fraction <= 1.0):
            raise ValueError(f"edge_fraction must be in [0, 1], got {self.edge_fraction}")
        if not (math.isfinite(self.edge_jitter_sigma) and self.edge_jitter_sigma > 0.0):
            raise ValueError(
                f"edge_jitter_sigma must be finite and > 0, got {self.edge_jitter_sigma}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build a scenario.

    ``tracks`` overrides the generated lane layout when given; otherwise the
    first ``n_targets`` built-in street lanes are used.
    """

    bounds: Rect = DEFAULT_BOUNDS
    static_map: StaticMap | None = None
    se_poses: tuple[Pose, ...] = (Pose(0.0, 0.0, 0.0), Pose(120.0, 0.0, 0.0))
    noise: NoiseModel = NoiseModel(0.8, math.radians(2.0))
    p_det: float = 0.95
    n_targets: int = 8
    clutter: ClutterModel = ClutterModel()
    t_steps: int = 100
    seed: int = 7
    tracks: tuple[TargetTrack, ...] | None = None


@dataclass(frozen=True)
class Scenario:
    """A validated, fully resolved scenario ready for frame generation."""

    bounds: Rect
    static_map: StaticMap
    se_poses: tuple[Pose, ...]
    se_ids: tuple[str, ...]
    noise: NoiseModel
    p_det: float
    clutter: ClutterModel
    tracks: tuple[TargetTrack, ...]
    t_steps: int
    seed: int


@dataclass(frozen=True)
class Frame:
    """One simulation step: pooled detections plus in-area ground truth."""

    t: int
    detections: tuple[WorldDetection, ...]
    truth: tuple[tuple[int, WorldPoint], ...]


@dataclass(frozen=True)
class Realization:
    """Frames of one realization as flat detection columns.

    Detections are grouped by frame; within a frame the target detections
    come first (SE-major, then track order) and clutter last.  ``range_m`` and
    ``bearing`` are a target detection's sampled measurement and NaN for
    clutter.  Truth is (T, N) in scenario track order, ``truth_in`` flagging
    the targets inside the closed bounds.
    """

    xy: np.ndarray  # (D, 2)
    frame_of: np.ndarray  # (D,) frame index
    se_idx: np.ndarray  # (D,)
    is_clutter: np.ndarray  # (D,) bool
    range_m: np.ndarray  # (D,)
    bearing: np.ndarray  # (D,)
    truth_xy: np.ndarray  # (T, N, 2)
    truth_in: np.ndarray  # (T, N)


def default_tracks(n_targets: int, bounds: Rect) -> tuple[TargetTrack, ...]:
    """Street-following lanes crossing the area edge to edge.

    Lanes are drawn from a fixed table scaled to the bounds, chosen so that on
    the default map every lane stays outside the buildings with at least 5 m
    of clearance.  Each target enters at one boundary and crosses at constant
    speed; with the default 120 m bounds and 100 steps it remains in the area
    for the whole run.
    """
    if n_targets > len(_DEFAULT_LANES):
        raise ConfigError(
            f"n_targets={n_targets} exceeds the {len(_DEFAULT_LANES)} built-in lanes; "
            f"provide explicit tracks instead"
        )
    tracks: list[TargetTrack] = []
    for k in range(n_targets):
        orientation, fraction, sign = _DEFAULT_LANES[k]
        if orientation == "horizontal":
            lane_y = bounds.y_min + fraction * bounds.height
            start_x = bounds.x_min if sign > 0 else bounds.x_max
            tracks.append(
                TargetTrack(k, WorldPoint(start_x, lane_y), (sign * DEFAULT_SPEED, 0.0), "horizontal")
            )
        else:
            lane_x = bounds.x_min + fraction * bounds.width
            start_y = bounds.y_min if sign > 0 else bounds.y_max
            tracks.append(
                TargetTrack(k, WorldPoint(lane_x, start_y), (0.0, sign * DEFAULT_SPEED), "vertical")
            )
    return tuple(tracks)


def _track_visits_bounds(track: TargetTrack, bounds: Rect, t_steps: int) -> bool:
    return any(
        bounds.contains(target_position(track, t)) for t in range(t_steps)
    )


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Validate a config and resolve it into a scenario.

    All violations are collected and reported together.  Building the same
    config twice yields an identical scenario; randomness enters only at
    frame-generation time through the caller's generator.
    """
    violations: list[str] = []
    if not (0.0 <= cfg.p_det <= 1.0):
        violations.append(f"p_det must be in [0, 1], got {cfg.p_det}")
    if cfg.t_steps < 1:
        violations.append(f"t_steps must be >= 1, got {cfg.t_steps}")
    if cfg.n_targets < 0:
        violations.append(f"n_targets must be >= 0, got {cfg.n_targets}")
    if cfg.seed < 0:
        violations.append(f"seed must be >= 0, got {cfg.seed}")
    if not cfg.se_poses:
        violations.append("se_poses must contain at least one pose")
    for i, pose in enumerate(cfg.se_poses):
        if not (
            cfg.bounds.x_min <= pose.x <= cfg.bounds.x_max
            and cfg.bounds.y_min <= pose.y <= cfg.bounds.y_max
        ):
            violations.append(
                f"se_poses[{i}] at ({pose.x}, {pose.y}) lies outside the bounds "
                f"{cfg.bounds.as_tuple()}"
            )

    static_map = cfg.static_map
    if static_map is None:
        try:
            static_map = StaticMap(DEFAULT_BUILDINGS, cfg.bounds)
        except ValueError as e:
            violations.append(f"default buildings do not fit the bounds: {e}")
    elif static_map.bounds != cfg.bounds:
        violations.append(
            f"static_map bounds {static_map.bounds.as_tuple()} disagree with the scenario "
            f"bounds {cfg.bounds.as_tuple()}"
        )

    tracks = cfg.tracks
    if tracks is None:
        try:
            tracks = default_tracks(cfg.n_targets, cfg.bounds)
        except ConfigError as e:
            violations.append(str(e))
    else:
        tracks = tuple(tracks)
        ids = [tr.id for tr in tracks]
        if len(set(ids)) != len(ids):
            violations.append(f"track ids must be unique, got {ids}")

    if not violations and tracks:
        never_inside = [
            tr.id for tr in tracks if not _track_visits_bounds(tr, cfg.bounds, cfg.t_steps)
        ]
        if never_inside:
            violations.append(
                f"tracks {never_inside} never enter the bounds within t_steps={cfg.t_steps}"
            )

    if violations:
        raise ConfigError(violations)
    assert static_map is not None and tracks is not None

    return Scenario(
        bounds=cfg.bounds,
        static_map=static_map,
        se_poses=tuple(cfg.se_poses),
        se_ids=tuple(f"se-{i}" for i in range(len(cfg.se_poses))),
        noise=cfg.noise,
        p_det=cfg.p_det,
        clutter=cfg.clutter,
        tracks=tracks,
        t_steps=cfg.t_steps,
        seed=cfg.seed,
    )


def realization_rng(seed: int, realization: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one Monte-Carlo realization.

    Streams are keyed by (seed, realization index) only, so enlarging a sweep
    grid never perturbs existing streams and repeated comparisons across grid
    cells are paired on identical frame sequences.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, realization)))


def generate_clutter(
    clutter: ClutterModel,
    static_map: StaticMap,
    bounds: Rect,
    rng: np.random.Generator,
    _max_resample_rounds: int = 10,
) -> np.ndarray:
    """Draw one frame's clutter positions as a (k, 2) array.

    Count is Poisson(lambda_fa).  Each point is edge clutter with probability
    edge_fraction: a uniform point on a uniformly chosen building edge segment
    plus isotropic Gaussian jitter.  The rest is uniform over the bounds.
    Edge points jittered out of the bounds are resampled a bounded number of
    times, then clamped.  Points landing inside buildings are kept; rejecting
    exactly those detections is the mask's job, not the generator's.
    """
    k = int(rng.poisson(clutter.lambda_fa))
    if k == 0:
        return np.empty((0, 2))
    edge_mask = rng.random(k) < clutter.edge_fraction
    segments = static_map.all_edges()
    if not segments and bool(edge_mask.any()):
        log.warning(
            "clutter edge_fraction=%.2f with an empty static map; generating all clutter "
            "uniformly",
            clutter.edge_fraction,
        )
        edge_mask[:] = False

    xy = np.empty((k, 2))
    n_edge = int(edge_mask.sum())
    if n_edge:
        seg_arr = np.asarray(segments)  # (S, 2, 2)
        pts = _sample_edge_points(seg_arr, n_edge, clutter.edge_jitter_sigma, rng)
        for _ in range(_max_resample_rounds):
            bad = ~(
                (pts[:, 0] >= bounds.x_min)
                & (pts[:, 0] <= bounds.x_max)
                & (pts[:, 1] >= bounds.y_min)
                & (pts[:, 1] <= bounds.y_max)
            )
            if not bad.any():
                break
            pts[bad] = _sample_edge_points(seg_arr, int(bad.sum()), clutter.edge_jitter_sigma, rng)
        np.clip(pts[:, 0], bounds.x_min, bounds.x_max, out=pts[:, 0])
        np.clip(pts[:, 1], bounds.y_min, bounds.y_max, out=pts[:, 1])
        xy[edge_mask] = pts
    n_uniform = k - n_edge
    if n_uniform:
        xy[~edge_mask] = rng.uniform(
            (bounds.x_min, bounds.y_min), (bounds.x_max, bounds.y_max), (n_uniform, 2)
        )
    return xy


def _sample_edge_points(
    seg_arr: np.ndarray, n: int, jitter_sigma: float, rng: np.random.Generator
) -> np.ndarray:
    idx = rng.integers(0, len(seg_arr), n)
    tpar = rng.random(n)[:, None]
    base = seg_arr[idx, 0] * (1.0 - tpar) + seg_arr[idx, 1] * tpar
    return base + jitter_sigma * rng.standard_normal((n, 2))


def _realize(scenario: Scenario, steps: Sequence[int], rng: np.random.Generator) -> Realization:
    # Per step: the p_det draw and noisy polar sample of each (SE, in-area
    # target) pair, then the frame's clutter.  Target samples stay scalar so
    # the generator is consumed in the same order as one frame at a time.
    n_se = len(scenario.se_poses)
    truth_xy = np.empty((len(steps), len(scenario.tracks), 2))
    truth_in = np.zeros((len(steps), len(scenario.tracks)), dtype=bool)
    hits: list[tuple[int, int, float, float, float, float]] = []
    clutter: list[np.ndarray] = []
    for i, t in enumerate(steps):
        truth = []
        for n, track in enumerate(scenario.tracks):
            pos = target_position(track, t)
            truth_xy[i, n] = pos.x, pos.y
            if scenario.bounds.contains(pos):
                truth_in[i, n] = True
                truth.append(pos)
        for s, pose in enumerate(scenario.se_poses):
            for pos in truth:
                if rng.random() < scenario.p_det:
                    z = sample_measurement(pose, pos, scenario.noise, rng)
                    p = polar_to_world(pose, z)
                    hits.append((i, s, p.x, p.y, z.range_m, z.bearing))
        clutter.append(generate_clutter(scenario.clutter, scenario.static_map, scenario.bounds, rng))

    hit = np.array(hits, dtype=float).reshape(-1, 6)
    counts = [len(c) for c in clutter]
    n_clutter = sum(counts)
    # Clutter is assigned to SEs round-robin within each frame.
    clutter_se = (np.arange(n_clutter) - np.repeat(np.cumsum(counts) - counts, counts)) % n_se
    nan = np.full(n_clutter, np.nan)
    frame_of = np.concatenate([hit[:, 0].astype(np.intp), np.repeat(range(len(steps)), counts)])
    # Stable on frame index: each frame's target detections precede its clutter.
    order = np.argsort(frame_of, kind="stable")
    return Realization(
        xy=np.concatenate([hit[:, 2:4], *clutter])[order],
        frame_of=frame_of[order],
        se_idx=np.concatenate([hit[:, 1].astype(np.intp), clutter_se])[order],
        is_clutter=np.repeat([False, True], [len(hit), n_clutter])[order],
        range_m=np.concatenate([hit[:, 4], nan])[order],
        bearing=np.concatenate([hit[:, 5], nan])[order],
        truth_xy=truth_xy,
        truth_in=truth_in,
    )


def generate_realization(scenario: Scenario, rng: np.random.Generator) -> Realization:
    """All frames of one realization as arrays, in step order.

    Draws from ``rng`` exactly as :func:`generate_frames` does, so the two
    describe the same detections.
    """
    return _realize(scenario, range(scenario.t_steps), rng)


def realization_detections(
    scenario: Scenario, rz: Realization, rows: np.ndarray
) -> list[WorldDetection]:
    """The realization's detections at ``rows`` as objects, in that order.

    Covariances exist only here: a target detection's from its sampled
    (range, bearing), a clutter point's from the geometry of its position.
    """
    noise = scenario.noise
    dets = []
    for (x, y), s, is_clutter, r, b in zip(
        rz.xy[rows].tolist(),
        rz.se_idx[rows].tolist(),
        rz.is_clutter[rows].tolist(),
        rz.range_m[rows].tolist(),
        rz.bearing[rows].tolist(),
    ):
        pose = scenario.se_poses[s]
        point = WorldPoint(x, y)
        if is_clutter:
            cov = world_covariance(pose, world_to_polar(pose, point), noise)
        else:
            cov = rotated_covariance(r, pose.theta + b, noise)
        dets.append(WorldDetection(point, cov, scenario.se_ids[s], is_clutter))
    return dets


def _frames(scenario: Scenario, rz: Realization) -> list[Frame]:
    dets = realization_detections(scenario, rz, np.arange(len(rz.frame_of)))
    ends = np.searchsorted(rz.frame_of, np.arange(1, len(rz.truth_in) + 1)).tolist()
    frames = []
    for t, (start, end) in enumerate(zip([0, *ends], ends)):
        truth = tuple(
            (track.id, WorldPoint(*xy))
            for track, xy, inside in zip(scenario.tracks, rz.truth_xy[t].tolist(), rz.truth_in[t])
            if inside
        )
        frames.append(Frame(t=t, detections=tuple(dets[start:end]), truth=truth))
    return frames


def generate_frame(scenario: Scenario, t: int, rng: np.random.Generator) -> Frame:
    """Generate the frame for step ``t``.

    Truth lists every target inside the closed bounds.  For each SE and each
    in-area target a detection is included with probability p_det, drawn
    through the noisy polar pipeline.  Clutter points are assigned to SEs
    round-robin and enter as detections at their sampled position with the
    viewing SE's covariance.
    """
    return replace(_frames(scenario, _realize(scenario, (t,), rng))[0], t=t)


def generate_frames(scenario: Scenario, rng: np.random.Generator) -> list[Frame]:
    """All frames of one realization, in step order."""
    return _frames(scenario, generate_realization(scenario, rng))
