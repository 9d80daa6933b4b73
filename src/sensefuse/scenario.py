"""Ground-truth scenario generation.

A scenario is a rectangular sensing area with a static building map, a ring of
sensing entities, and straight-line targets crossing the junction.  Each step
produces a frame: per-SE noisy detections of every in-area target plus a
Poisson batch of clutter detections concentrated near building edges.

A realization is generated as flat arrays (:class:`Realization`), which is all
the sweep and the call flow's fusion read.  The generator is drawn from in the
order of the one-frame-at-a-time oracle ``generate_frame`` in
``tests/oracles.py``: per step, each target hit's scalar draws are recorded,
then the frame's clutter comes from a sampler that holds the map's edge
segments and the bounds for the whole realization.  Truth, the noise-free
geometry and the back-projection of every hit are array math done once per
realization, bit-identical to the scalar formulas.  Covariances are derived,
as arrays, only by :func:`realization_detections`, which returns chosen rows
as :class:`DetectionColumns`: the call flow's raw archive record stores those
columns, and the ``Frame`` view of :func:`generate_frames`, which serves
tests and the acceptance criteria, builds its per-detection objects from
them.

Clutter points model spurious detections (multipath and ghost returns), so
the sampled world position *is* the realized detection; the polar pipeline is
still consulted for the source SE's viewing geometry and covariance, but no
second noise draw is applied on top of the spatial jitter.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateGeometryError
from .geometry import Rect, StaticMap, WorldPoint
from .measurement import (
    DetectionColumns,
    NoiseModel,
    Pose,
    WorldDetection,
    wrap_angles,
)

log = logging.getLogger(__name__)

# Default junction furniture: two buildings flanking a central vertical
# street, with open corridors along the south, north, west and east sides.
DEFAULT_BOUNDS = Rect(0.0, 0.0, 120.0, 120.0)
DEFAULT_BUILDINGS = (Rect(20.0, 45.0, 55.0, 75.0), Rect(65.0, 45.0, 100.0, 75.0))
DEFAULT_SPEED = 1.2  # meters per step
_RESAMPLE_ROUNDS = 10  # for edge clutter jittered out of the bounds, before clamping

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


def _sight_lines(
    poses: Sequence[Pose], tracks: Sequence[TargetTrack], bounds: Rect, steps: Sequence[int]
) -> tuple[np.ndarray, ...]:
    """Per (step, track): truth (T, N, 2), in-bounds (T, N), SE dx, dy, range (T, S, N)."""
    t = np.asarray(steps, dtype=float)[:, None, None]
    start = np.array([(tr.start.x, tr.start.y) for tr in tracks]).reshape(-1, 2)
    velocity = np.array([tr.velocity for tr in tracks], dtype=float).reshape(-1, 2)
    truth_xy = start + t * velocity
    tx, ty = truth_xy[..., 0], truth_xy[..., 1]
    truth_in = (bounds.x_min <= tx) & (tx <= bounds.x_max) & (bounds.y_min <= ty)
    truth_in &= ty <= bounds.y_max
    pose = np.array([(p.x, p.y) for p in poses]).reshape(-1, 2)
    dx = tx[:, None, :] - pose[None, :, 0, None]
    dy = ty[:, None, :] - pose[None, :, 1, None]
    return truth_xy, truth_in, dx, dy, np.sqrt(dx * dx + dy * dy)


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
        _, truth_in, _, _, r0 = _sight_lines(cfg.se_poses, tracks, cfg.bounds, range(cfg.t_steps))
        never_inside = [tr.id for tr, seen in zip(tracks, truth_in.any(axis=0)) if not seen]
        if never_inside:
            violations.append(
                f"tracks {never_inside} never enter the bounds within t_steps={cfg.t_steps}"
            )
        # The generator takes a bearing from every SE to every in-area target,
        # so a target at zero range from an SE would stop it mid-realization.
        first: dict[tuple[int, int], int] = {}
        for t, i, n in zip(*np.nonzero((r0 == 0.0) & truth_in[:, None, :])):
            first.setdefault((int(i), int(n)), int(t))
        violations += [
            f"se_poses[{i}] at ({cfg.se_poses[i].x}, {cfg.se_poses[i].y}) lies on track "
            f"{tracks[n].id} at step {t}"
            for (i, n), t in sorted(first.items())
        ]

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


def _clutter_sampler(
    clutter: ClutterModel, static_map: StaticMap, bounds: Rect
) -> Callable[[np.random.Generator], np.ndarray]:
    """A draw of one frame's clutter positions as a (k, 2) array.

    Count is Poisson(lambda_fa).  Each point is edge clutter with probability
    edge_fraction: a uniform point on a uniformly chosen building edge segment
    plus isotropic Gaussian jitter.  The rest is uniform over the bounds.
    Edge points jittered out of the bounds are resampled a bounded number of
    times, then clamped.  Points landing inside buildings are kept; rejecting
    exactly those detections is the mask's job, not the generator's.  The
    map's edge segments and the bounds are built once per sampler, which
    warns about an empty map at most once.
    """
    segments = np.asarray(static_map.all_edges(), dtype=float).reshape(-1, 2, 2)  # (S, 2, 2)
    seg_a, seg_b = segments[:, 0].copy(), segments[:, 1].copy()
    lo, hi = np.array([[bounds.x_min, bounds.y_min], [bounds.x_max, bounds.y_max]])
    span = hi - lo
    warned = False

    def edge_points(n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, len(seg_a), n)
        tpar = rng.random(n)[:, None]
        base = seg_a.take(idx, axis=0) * (1.0 - tpar) + seg_b.take(idx, axis=0) * tpar
        return base + clutter.edge_jitter_sigma * rng.standard_normal((n, 2))

    def draw(rng: np.random.Generator) -> np.ndarray:
        nonlocal warned
        k = int(rng.poisson(clutter.lambda_fa))
        edge_mask = rng.random(k) < clutter.edge_fraction
        n_edge = int(np.count_nonzero(edge_mask))
        if n_edge and not len(seg_a):
            if not warned:
                log.warning(
                    "clutter edge_fraction=%.2f with an empty static map; generating all "
                    "clutter uniformly",
                    clutter.edge_fraction,
                )
                warned = True
            edge_mask[:] = False
            n_edge = 0
        xy = np.empty((k, 2))
        if n_edge:
            pts = edge_points(n_edge, rng)
            for _ in range(_RESAMPLE_ROUNDS):
                inside = (lo <= pts) & (pts <= hi)
                if inside.all():
                    break
                bad = ~inside.all(axis=1)
                pts[bad] = edge_points(int(np.count_nonzero(bad)), rng)
            else:
                np.clip(pts, lo, hi, out=pts)
            xy[edge_mask] = pts
        if n_edge < k:
            # lo + span * U[0, 1) is rng.uniform(lo, hi) to the bit, on the same draws.
            xy[~edge_mask] = lo + span * rng.random((k - n_edge, 2))
        return xy

    return draw


def _realize(scenario: Scenario, steps: Sequence[int], rng: np.random.Generator) -> Realization:
    # The generator is consumed in the order of one frame at a time: per
    # step, the p_det draw and noisy polar sample of each (SE, in-area
    # target) pair, then the frame's clutter.  Only those draws are scalar;
    # truth, the noise-free geometry and the back-projection are arrays.
    poses, bounds = scenario.se_poses, scenario.bounds
    n_se, n_tr = len(poses), len(scenario.tracks)
    truth_xy, truth_in, dx, dy, r0 = _sight_lines(poses, scenario.tracks, bounds, steps)

    p_det, sigma_r = scenario.p_det, scenario.noise.sigma_range
    random, normal = rng.random, rng.standard_normal
    draw_clutter = _clutter_sampler(scenario.clutter, scenario.static_map, bounds)
    hit_at: list[int] = []  # flat (step, SE, target) index of each hit
    hit_r: list[float] = []  # sampled range, redrawn while non-positive
    hit_zb: list[float] = []  # the bearing's standard normal draw
    clutter: list[np.ndarray] = []
    for i, (inside, r0_i) in enumerate(zip(truth_in.tolist(), r0.tolist())):
        cols = [n for n, flag in enumerate(inside) if flag]
        for s, r0_s in enumerate(r0_i):
            for n in cols:
                if random() >= p_det:
                    continue
                r0_n = r0_s[n]
                if r0_n == 0.0:
                    raise DegenerateGeometryError(
                        f"cannot take a bearing to a point at the SE position "
                        f"({poses[s].x}, {poses[s].y})"
                    )
                r = r0_n + sigma_r * normal()
                redraws = 0
                while r <= 0.0:
                    redraws += 1
                    if redraws > 1000:  # only a pathological noise scale gets here
                        raise RuntimeError(
                            f"range redraw cap exceeded at range {r0_n} with sigma {sigma_r}"
                        )
                    r = r0_n + sigma_r * normal()
                hit_at.append((i * n_se + s) * n_tr + n)
                hit_r.append(r)
                hit_zb.append(normal())
        clutter.append(draw_clutter(rng))

    # Back-projection of every hit through its pose into the world frame, in
    # the scalar formulas' evaluation order; the transcendental functions are
    # Python's math ones, mapped over the column.
    at = np.array(hit_at, dtype=np.intp)
    step_of, se_of = np.unravel_index(at, r0.shape)[:2]
    pose = np.array([(p.x, p.y, p.theta, math.cos(p.theta), math.sin(p.theta)) for p in poses])
    px, py, theta, cos_h, sin_h = pose.take(se_of, axis=0).T
    b0 = wrap_angles(_mapped(math.atan2, dy.ravel()[at], dx.ravel()[at]) - theta)
    bearing = wrap_angles(b0 + scenario.noise.sigma_bearing * np.array(hit_zb))
    range_m = np.array(hit_r)
    lx = range_m * _mapped(math.cos, bearing)
    ly = range_m * _mapped(math.sin, bearing)
    x = px + cos_h * lx - sin_h * ly
    y = py + sin_h * lx + cos_h * ly

    counts = [len(c) for c in clutter]
    n_clutter = sum(counts)
    # Clutter is assigned to SEs round-robin within each frame.
    clutter_se = (np.arange(n_clutter) - np.repeat(np.cumsum(counts) - counts, counts)) % n_se
    nan = np.full(n_clutter, np.nan)
    frame_of = np.concatenate([step_of, np.repeat(np.arange(len(counts)), counts)])
    # Stable on frame index: each frame's target detections precede its clutter.
    order = np.argsort(frame_of, kind="stable")
    return Realization(
        xy=np.concatenate([np.column_stack([x, y]), *clutter]).take(order, axis=0),
        frame_of=frame_of[order],
        se_idx=np.concatenate([se_of, clutter_se])[order],
        is_clutter=np.repeat([False, True], [len(at), n_clutter])[order],
        range_m=np.concatenate([range_m, nan])[order],
        bearing=np.concatenate([bearing, nan])[order],
        truth_xy=truth_xy,
        truth_in=truth_in,
    )


def _mapped(fn: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), dtype=float, count=len(columns[0]))


def generate_realization(scenario: Scenario, rng: np.random.Generator) -> Realization:
    """All frames of one realization as arrays, in step order.

    Draws from ``rng`` exactly as :func:`generate_frames` does, so the two
    describe the same detections.
    """
    return _realize(scenario, range(scenario.t_steps), rng)


def realization_detections(
    scenario: Scenario, rz: Realization, rows: np.ndarray
) -> DetectionColumns:
    """The realization's detections at ``rows`` as columns, in that order.

    Covariances exist only here: a target detection's from its sampled
    (range, bearing), a clutter point's from the noise-free view of its
    position by its SE.  They are bit-identical to the scalar oracles
    ``rotated_covariance``/``world_covariance`` in ``tests/oracles.py``:
    numpy's ``+ - *``, ``sqrt`` and ``mod`` round as Python's do, and the
    transcendental functions are Python's ``math`` ones mapped over the column.
    """
    xy = rz.xy.take(rows, axis=0)
    se_idx = rz.se_idx[rows]
    clutter = rz.is_clutter[rows]
    pose = np.array([(p.x, p.y, p.theta) for p in scenario.se_poses]).take(se_idx, axis=0)
    # Copies: their clutter rows are filled in below.
    range_m = np.array(rz.range_m[rows])
    bearing = np.array(rz.bearing[rows])

    # Clutter: the noise-free (range, bearing) of the point from its SE.
    d = xy[clutter] - pose[clutter, :2]
    dx, dy = d[:, 0], d[:, 1]
    r = np.sqrt(dx * dx + dy * dy)
    if np.any(r == 0.0):
        raise DegenerateGeometryError("cannot take a bearing to a point at the SE position")
    range_m[clutter] = r
    bearing[clutter] = wrap_angles(_mapped(math.atan2, dy, dx) - pose[clutter, 2])

    # diag(sigma_r^2, (r * sigma_b)^2) rotated by heading + bearing, in the
    # scalar formula's evaluation order.
    angle = pose[:, 2] + bearing
    c, s = _mapped(math.cos, angle), _mapped(math.sin, angle)
    a = scenario.noise.sigma_range * scenario.noise.sigma_range
    rb = range_m * scenario.noise.sigma_bearing
    b = rb * rb
    cov = np.column_stack([a * c * c + b * s * s, (a - b) * c * s, a * s * s + b * c * c])
    return DetectionColumns(xy, cov, se_idx, scenario.se_ids, clutter)


def _frames(scenario: Scenario, rz: Realization) -> list[Frame]:
    dets = realization_detections(scenario, rz, np.arange(len(rz.frame_of))).detections()
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


def generate_frames(scenario: Scenario, rng: np.random.Generator) -> list[Frame]:
    """All frames of one realization, in step order."""
    return _frames(scenario, generate_realization(scenario, rng))
