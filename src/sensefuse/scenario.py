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
across versions, so a realization consumes its generator exactly as the
one-frame-at-a-time oracles in ``tests/oracles.py`` do, and a speed-up must
keep this order.  Frame by frame, in step order:

1. per (SE, in-area target) pair, SE-major then in track order: one uniform
   for the p_det test and, for a hit, range normals redrawn while the range
   is not positive, then one bearing normal;
2. then the frame's clutter: the Poisson count ``k``, ``k`` uniforms for the
   edge split, the ``n`` edge points' segment integers, ``n`` lerp uniforms
   and ``(n, 2)`` jitter normals, any resample draws (per round, the same
   three for the points out of the bounds), and ``(k - n, 2)`` uniforms for
   the rest.

Only those draws are made per frame.  Truth, the noise-free geometry, the
clutter positions and the back-projection of every hit are array math done
once per realization, bit-identical to the scalar formulas.

Clutter points model spurious detections (multipath and ghost returns), so
the sampled world position *is* the realized detection: no second noise draw
is applied on top of the spatial jitter.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import islice
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


class _ClutterSampler:
    """One realization's clutter: drawn frame by frame, placed once.

    Count is Poisson(lambda_fa).  Each point is edge clutter with probability
    edge_fraction: a uniform point on a uniformly chosen building edge segment
    plus isotropic Gaussian jitter.  The rest is uniform over the bounds.
    Edge points jittered out of the bounds are resampled a bounded number of
    times, then clamped.  Points landing inside buildings are kept; rejecting
    exactly those detections is the mask's job, not the generator's.

    :meth:`draw` makes one frame's generator calls and little else;
    :meth:`points` evaluates the position formulas once over every frame
    drawn.  They are elementwise, so each point equals its per-frame
    evaluation to the bit.  Only resampling needs a frame's positions before
    the next frame is drawn, and only when its largest jitter could carry a
    point on an edge out of the bounds: when ``sigma * max|z|`` is not below
    the edges' clearance to the bounds, less 8 ulps at the coordinate scale
    for rounding.  Such a frame is placed on the spot, as is every frame
    with edge points on a map flush with or crossing the bounds.  An empty
    map is warned about at most once per sampler.
    """

    def __init__(self, clutter: ClutterModel, static_map: StaticMap, bounds: Rect) -> None:
        segments = np.asarray(static_map.all_edges(), dtype=float).reshape(-1, 2, 2)  # (S, 2, 2)
        self._seg_a, self._seg_b = segments[:, 0].copy(), segments[:, 1].copy()
        self._lo, self._hi = np.array([[bounds.x_min, bounds.y_min], [bounds.x_max, bounds.y_max]])
        self._clutter = clutter
        self._jitter_max = -math.inf  # no edges, no edge points
        if len(segments):
            ends = segments.reshape(-1, 2)
            clearance = min((ends - self._lo).min(), (self._hi - ends).min())
            scale = max(np.abs(ends).max(), np.abs(self._lo).max(), np.abs(self._hi).max())
            # The lerp rounds by under 2 ulps of the scale, the clearance and
            # this subtraction by under 2 each: 8 ulps leave a margin.
            self._jitter_max = float(clearance) - 8.0 * math.ulp(scale)
        self._warned = False
        self.counts: list[int] = []  # points per frame
        # Per frame: which points are edge clutter, the edge points' segment
        # indices, lerp parameters and (n, 2) jitter normals, and the uniform
        # share's (k - n, 2) unit draws; each list starts with an empty block.
        self._edge = [np.zeros(0, dtype=bool)]
        self._idx = [np.zeros(0, dtype=np.int64)]
        self._t = [np.zeros(0)]
        self._z = [np.zeros((0, 2))]
        self._unit = [np.zeros((0, 2))]
        self._n_edge = 0
        self._placed: list[tuple[int, np.ndarray]] = []  # (first edge point, positions)

    def draw(self, rng: np.random.Generator) -> None:
        """Draw one frame: count, edge split, segments, lerps, jitter, uniform share."""
        clutter = self._clutter
        k = int(rng.poisson(clutter.lambda_fa))
        edge = rng.random(k) < clutter.edge_fraction
        n_edge = int(np.count_nonzero(edge))
        if n_edge and not len(self._seg_a):
            if not self._warned:
                log.warning(
                    "clutter edge_fraction=%.2f with an empty static map; generating all "
                    "clutter uniformly",
                    clutter.edge_fraction,
                )
                self._warned = True
            edge[:] = False
            n_edge = 0
        self.counts.append(k)
        self._edge.append(edge)
        if n_edge:
            idx = rng.integers(0, len(self._seg_a), n_edge)
            t = rng.random(n_edge)
            z = rng.standard_normal((n_edge, 2))
            self._idx.append(idx)
            self._t.append(t)
            self._z.append(z)
            if not clutter.edge_jitter_sigma * abs(z).max() < self._jitter_max:
                self._placed.append((self._n_edge, self._in_bounds(idx, t, z, rng)))
            self._n_edge += n_edge
        if n_edge < k:
            self._unit.append(rng.random((k - n_edge, 2)))

    def points(self) -> np.ndarray:
        """Every point drawn so far as a (k, 2) array, in frame order."""
        edge = np.concatenate(self._edge)
        pts = self._edge_points(*map(np.concatenate, (self._idx, self._t, self._z)))
        for start, placed in self._placed:
            pts[start : start + len(placed)] = placed
        # lo + span * U[0, 1) is rng.uniform(lo, hi) to the bit, on the same draws.
        uniform = self._lo + (self._hi - self._lo) * np.concatenate(self._unit)
        # Row i of [pts; uniform] goes to frame-order row at[i]; gathering
        # rows by the inverse permutation is much faster than boolean scatters.
        at = np.concatenate([np.flatnonzero(edge), np.flatnonzero(~edge)])
        src = np.empty_like(at)
        src[at] = np.arange(len(at))
        return np.concatenate([pts, uniform]).take(src, axis=0)

    def _edge_points(self, idx: np.ndarray, t: np.ndarray, z: np.ndarray) -> np.ndarray:
        tpar = t[:, None]
        base = self._seg_a.take(idx, axis=0) * (1.0 - tpar) + self._seg_b.take(idx, axis=0) * tpar
        return base + self._clutter.edge_jitter_sigma * z

    def _in_bounds(
        self, idx: np.ndarray, t: np.ndarray, z: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One frame's edge points, resampled point by point until in bounds, then clamped."""
        lo, hi = self._lo, self._hi
        pts = self._edge_points(idx, t, z)
        for _ in range(_RESAMPLE_ROUNDS):
            inside = (lo <= pts) & (pts <= hi)
            if inside.all():
                break
            bad = ~inside.all(axis=1)
            n = int(np.count_nonzero(bad))
            pts[bad] = self._edge_points(
                rng.integers(0, len(self._seg_a), n), rng.random(n), rng.standard_normal((n, 2))
            )
        else:
            np.clip(pts, lo, hi, out=pts)
        return pts


def _draw(
    scenario: Scenario, truth_in: np.ndarray, r0: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Every generator call of a realization, frame by frame in the module's draw order.

    Returns each target hit's flat (step, SE, target) index, sampled range
    and bearing normal, then the clutter points in frame order and their
    count per frame.  The per-frame draws are released on return.
    """
    poses = scenario.se_poses
    n_se, n_tr = len(poses), len(scenario.tracks)
    # Flat (step, SE, target) index and noise-free range of every in-area
    # pair, in draw order, and the number of pairs in each step.
    pair_at = np.flatnonzero(np.broadcast_to(truth_in[:, None, :], r0.shape))
    pairs = zip(pair_at.tolist(), r0.ravel()[pair_at].tolist())
    per_step = (np.count_nonzero(truth_in, axis=1) * n_se).tolist()

    p_det, sigma_r = scenario.p_det, scenario.noise.sigma_range
    random, normal = rng.random, rng.standard_normal
    sampler = _ClutterSampler(scenario.clutter, scenario.static_map, scenario.bounds)
    draw_clutter = sampler.draw
    hit_at: list[int] = []
    hit_r: list[float] = []  # redrawn while non-positive
    hit_zb: list[float] = []
    for n_pairs in per_step:
        for at, r0_n in islice(pairs, n_pairs):
            if random() >= p_det:
                continue
            if r0_n == 0.0:
                pose = poses[at // n_tr % n_se]
                raise DegenerateGeometryError(
                    f"cannot take a bearing to a point at the SE position ({pose.x}, {pose.y})"
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
            hit_at.append(at)
            hit_r.append(r)
            hit_zb.append(normal())
        draw_clutter(rng)
    hits = np.array(hit_at, dtype=np.intp), np.array(hit_r), np.array(hit_zb)
    return *hits, sampler.points(), sampler.counts


def _realize(scenario: Scenario, steps: Sequence[int], rng: np.random.Generator) -> Realization:
    # Only the generator calls are made frame by frame (``_draw``); truth,
    # the noise-free geometry, the clutter positions and the back-projection
    # are arrays over the whole realization.
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
