"""Ground-truth scenario generation.

A scenario is a rectangular sensing area with a static building map, a ring of
sensing entities, and straight-line targets crossing the junction.  Each step
produces a frame: per-SE noisy detections of every in-area target plus a
Poisson batch of clutter detections concentrated near building edges.

A realization is generated as flat arrays (:class:`Realization`), which is all
the sweep and the call flow's fusion read.
:func:`realization_detections` returns chosen rows as
:class:`DetectionColumns`: the call flow's raw archive record stores those
columns, and the ``Frame`` view of :func:`generate_frames`, which serves
tests and the acceptance criteria, holds one such batch per frame.

Draw order is a contract.  Golden digests pin the sweep CSV and the stores
across versions, so a realization makes exactly the generator calls of the
block oracle in ``tests/oracles.py``: one per variable, in this order.

1. ``random(P)``, one uniform per in-area (step, SE, target) pair in that
   nesting order; a pair below ``p_det`` is a hit.  A hit at zero range
   raises :class:`DegenerateGeometryError` naming the first one's SE.
2. ``standard_normal(H)``, the ``H`` hits' range normals; then rounds of
   ``standard_normal(m)`` for the ``m`` ranges still not positive, at most
   1000 rounds.
3. ``standard_normal(H)``, the bearing normals.
4. Clutter: ``poisson(lambda_fa, T)`` per-frame counts; ``random(K)``
   splits all ``K`` points, in frame order, into ``n`` edge points and the
   rest; ``integers(0, S, n)``, ``random(n)`` and ``standard_normal((n, 2))``
   place the edge points on the ``S`` building edges clipped to the bounds;
   up to 10 rounds of the same three calls redraw the edge points out of the
   bounds, then any still out are clamped; ``random((K - n, 2))`` places the
   uniform share.  A call for no points draws nothing.

Truth, the noise-free geometry, the clutter positions and the back-projection
of every hit are array math on those draws.

Clutter points model spurious detections (multipath and ghost returns), so
the sampled world position *is* the realized detection: no second noise draw
is applied on top of the spatial jitter.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateGeometryError
from .geometry import Rect, StaticMap, WorldPoint
from .measurement import DetectionColumns, NoiseModel, Pose, wrap_angles

log = logging.getLogger(__name__)

# Default junction furniture: two buildings flanking a central vertical
# street, with open corridors along the south, north, west and east sides.
DEFAULT_BOUNDS = Rect(0.0, 0.0, 120.0, 120.0)
DEFAULT_BUILDINGS = (Rect(20.0, 45.0, 55.0, 75.0), Rect(65.0, 45.0, 100.0, 75.0))
DEFAULT_SPEED = 1.2  # meters per step
_RESAMPLE_ROUNDS = 10  # for edge clutter jittered out of the bounds, before clamping
# The largest mean numpy's Poisson sampler accepts; past it, it raises
# "lam value too large".
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)

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
        if not (0.0 <= self.lambda_fa <= POISSON_LAM_MAX):
            raise ValueError(f"lambda_fa must be in [0, {POISSON_LAM_MAX!r}], got {self.lambda_fa}")
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
    detections: DetectionColumns
    truth: tuple[tuple[int, WorldPoint], ...]


@dataclass(frozen=True)
class Realization:
    """Frames of one realization as flat detection columns.

    Detections are grouped by frame; within a frame the target detections
    come first (SE-major, then track order) and clutter last.  Truth is
    (T, N) in scenario track order, ``truth_in`` flagging the targets inside
    the closed bounds.
    """

    xy: np.ndarray  # (D, 2)
    frame_of: np.ndarray  # (D,) frame index
    se_idx: np.ndarray  # (D,)
    is_clutter: np.ndarray  # (D,) bool
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


def _clutter(scenario: Scenario, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` clutter points in frame order, as step 4 of the module's draw order places them.

    Points landing inside buildings are kept; rejecting exactly those
    detections is the mask's job, not the generator's.
    """
    clutter, bounds = scenario.clutter, scenario.bounds
    lo, hi = np.array([[bounds.x_min, bounds.y_min], [bounds.x_max, bounds.y_max]])
    # Edges are axis-aligned: drop those whose fixed coordinate lies outside
    # the bounds, clip the rest along their axis, and drop any left empty.
    seg = np.asarray(scenario.static_map.all_edges(), dtype=float).reshape(-1, 2, 2)
    clipped = np.clip(seg, lo, hi)
    keep = ((clipped == seg) | (seg[:, :1] != seg[:, 1:])).all(axis=(1, 2))
    segments = clipped[keep & (clipped[:, 0] != clipped[:, 1]).any(axis=1)]

    def edge_points(n: int) -> np.ndarray:
        ends = segments.take(rng.integers(0, len(segments), n), axis=0)
        t = rng.random(n)[:, None]
        jitter = clutter.edge_jitter_sigma * rng.standard_normal((n, 2))
        return ends[:, 0] * (1.0 - t) + ends[:, 1] * t + jitter

    edge = rng.random(k) < clutter.edge_fraction
    if not len(segments) and edge.any():
        log.warning(
            "clutter edge_fraction=%.2f with an empty static map (no building edge inside"
            " the bounds); generating all clutter uniformly",
            clutter.edge_fraction,
        )
        edge[:] = False
    n = int(np.count_nonzero(edge))
    pts = edge_points(n) if n else np.empty((0, 2))
    for _ in range(_RESAMPLE_ROUNDS):
        bad = ~((lo <= pts) & (pts <= hi)).all(axis=1)
        if not bad.any():
            break
        pts[bad] = edge_points(int(np.count_nonzero(bad)))
    else:
        np.clip(pts, lo, hi, out=pts)
    # lo + span * U[0, 1) is rng.uniform(lo, hi) to the bit, on the same draws.
    uniform = lo + (hi - lo) * rng.random((k - n, 2))
    # Row i of [pts; uniform] goes to frame-order row at[i]; gathering rows by
    # the inverse permutation is much faster than boolean scatters.
    at = np.concatenate([np.flatnonzero(edge), np.flatnonzero(~edge)])
    src = np.empty_like(at)
    src[at] = np.arange(k)
    return np.concatenate([pts, uniform]).take(src, axis=0)


def _draw(
    scenario: Scenario, truth_in: np.ndarray, r0: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every generator call of a realization, in the module's draw order.

    Returns each hit's flat (step, SE, target) index, range and bearing
    normal, then the clutter points in frame order and their count per frame.
    """
    # Flat (step, SE, target) index of every in-area pair, in draw order.
    pair_at = np.flatnonzero(np.broadcast_to(truth_in[:, None, :], r0.shape))
    at = pair_at[rng.random(len(pair_at)) < scenario.p_det]
    r0_hit = r0.ravel()[at]
    if (r0_hit == 0.0).any():
        pose = scenario.se_poses[np.unravel_index(at[r0_hit == 0.0][0], r0.shape)[1]]
        raise DegenerateGeometryError(
            f"cannot take a bearing to a point at the SE position ({pose.x}, {pose.y})"
        )
    sigma_r = scenario.noise.sigma_range
    range_m = r0_hit + sigma_r * rng.standard_normal(len(at))
    rounds = 0
    while len(bad := np.flatnonzero(range_m <= 0.0)):
        rounds += 1
        if rounds > 1000:  # only a pathological noise scale gets here
            raise RuntimeError(
                f"range redraw cap exceeded at range {float(r0_hit[bad[0]])} with sigma {sigma_r}"
            )
        range_m[bad] = r0_hit[bad] + sigma_r * rng.standard_normal(len(bad))
    zb = rng.standard_normal(len(at))
    counts = rng.poisson(scenario.clutter.lambda_fa, len(truth_in))
    clutter = _clutter(scenario, int(counts.sum()), rng)
    return at, range_m, zb, clutter, counts


def _realize(scenario: Scenario, steps: Sequence[int], rng: np.random.Generator) -> Realization:
    # The generator calls are ``_draw``'s; truth, the noise-free geometry
    # and the back-projection are arrays over the whole realization.
    poses = scenario.se_poses
    truth_xy, truth_in, dx, dy, r0 = _sight_lines(poses, scenario.tracks, scenario.bounds, steps)
    at, range_m, zb, clutter, counts = _draw(scenario, truth_in, r0, rng)

    # Back-projection of every hit through its pose into the world frame, in
    # the scalar formulas' evaluation order; the transcendental functions are
    # Python's math ones, mapped over the column.
    step_of, se_of = np.unravel_index(at, r0.shape)[:2]
    pose = np.array([(p.x, p.y, p.theta, math.cos(p.theta), math.sin(p.theta)) for p in poses])
    px, py, theta, cos_h, sin_h = pose.take(se_of, axis=0).T
    b0 = wrap_angles(_mapped(math.atan2, dy.ravel()[at], dx.ravel()[at]) - theta)
    bearing = wrap_angles(b0 + scenario.noise.sigma_bearing * zb)
    lx = range_m * _mapped(math.cos, bearing)
    ly = range_m * _mapped(math.sin, bearing)
    x = px + cos_h * lx - sin_h * ly
    y = py + sin_h * lx + cos_h * ly

    n_clutter = len(clutter)
    # Clutter is assigned to SEs round-robin within each frame.
    clutter_se = (np.arange(n_clutter) - np.repeat(np.cumsum(counts) - counts, counts)) % len(poses)
    frame_of = np.concatenate([step_of, np.repeat(np.arange(len(counts)), counts)])
    # Stable on frame index: each frame's target detections precede its clutter.
    order = np.argsort(frame_of, kind="stable")
    return Realization(
        xy=np.concatenate([np.column_stack([x, y]), clutter]).take(order, axis=0),
        frame_of=frame_of[order],
        se_idx=np.concatenate([se_of, clutter_se])[order],
        is_clutter=np.repeat([False, True], [len(at), n_clutter])[order],
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
    """The realization's detections at ``rows`` as columns, in that order."""
    return DetectionColumns(
        rz.xy.take(rows, axis=0), rz.se_idx[rows], scenario.se_ids, rz.is_clutter[rows]
    )


def _frames(scenario: Scenario, rz: Realization) -> list[Frame]:
    ends = np.searchsorted(rz.frame_of, np.arange(1, len(rz.truth_in) + 1)).tolist()
    frames = []
    for t, (start, end) in enumerate(zip([0, *ends], ends)):
        truth = tuple(
            (track.id, WorldPoint(*xy))
            for track, xy, inside in zip(scenario.tracks, rz.truth_xy[t].tolist(), rz.truth_in[t])
            if inside
        )
        detections = realization_detections(scenario, rz, np.arange(start, end))
        frames.append(Frame(t=t, detections=detections, truth=truth))
    return frames


def generate_frames(scenario: Scenario, rng: np.random.Generator) -> list[Frame]:
    """All frames of one realization, in step order."""
    return _frames(scenario, generate_realization(scenario, rng))
