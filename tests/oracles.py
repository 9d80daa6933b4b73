"""Scalar, one-object-per-point reference implementations for the tests.

The package computes on arrays: the generator samples and back-projects
target hits on scalar draws without building objects, covariances are
derived as columns, and the fusion kernel reads flat distance arrays.  The
functions here are the object-at-a-time forms of the same math:

* the polar measurement model: :class:`PolarMeasurement`,
  :func:`world_to_polar`, :func:`polar_to_world`, the samplers, the
  per-detection covariances as ``(xx, xy, yy)`` tuples and
  :func:`cov_matrix`;
* :func:`target_position`, a track's position at one step;
* :func:`generate_frame`, one step of a realization as a ``Frame``, and
  :func:`generate_clutter`, one frame's clutter;
* :func:`block_frames` and :func:`block_clutter`, the block draw order
  built point by point, and :func:`frame_order_draw`, the frame draw order
  that the block order replaced, kept as its distributional reference;
* :func:`precompute_distances`, which packs ``Frame`` lists into the fusion
  kernel's input, :func:`fused_metrics`, the kernel's one-cell case, and
  :func:`result_from_counts`, one cell's Pd/FA from plain counters; a cell
  is a margin and a gate, a negative margin meaning mask off;
* :func:`rect_contains`, point-to-map distances and the closed dilated-map
  membership spec;
* :func:`read_trace`, the inverse of ``callflow.write_trace``;
* :func:`fetch`, the store's one read, and :func:`availability`, its
  coverage verdict with one portion clipped and subtracted per fetched
  record.

Tests import this module by name, as they import ``conftest``.  Nothing in
the package imports it.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from sensefuse.callflow import TraceEvent
from sensefuse.errors import DegenerateGeometryError, EmptyRunError
from sensefuse.fusion import FrameDistances, detection_distances, grid_arrays
from sensefuse.geometry import Rect, Segment, StaticMap, WorldPoint, subtract_rects
from sensefuse.measurement import DetectionColumns, NoiseModel, Pose, wrap_angle, wrap_angles
from sensefuse.metrics import MetricResult
from sensefuse.scenario import (
    _RESAMPLE_ROUNDS,
    ClutterModel,
    Frame,
    Scenario,
    TargetTrack,
    _frames,
    _realize,
    generate_realization,
)
from sensefuse.sdsf_store import Availability, SensingContext, SensingRecord, _subtract_window

log = logging.getLogger(__name__)


# -- measurement -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PolarMeasurement:
    """One range-bearing observation, tagged with the SE that produced it."""

    range_m: float
    bearing: float
    source_se: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.range_m) and self.range_m > 0.0):
            raise ValueError(f"range must be finite and > 0, got {self.range_m}")
        object.__setattr__(self, "bearing", wrap_angle(self.bearing))


def polar_to_world(pose: Pose, z: PolarMeasurement) -> WorldPoint:
    """Back-project a polar measurement through the SE pose into the world frame."""
    lx = z.range_m * math.cos(z.bearing)
    ly = z.range_m * math.sin(z.bearing)
    c = math.cos(pose.theta)
    s = math.sin(pose.theta)
    return WorldPoint(pose.x + c * lx - s * ly, pose.y + s * lx + c * ly)


def world_to_polar(pose: Pose, p: WorldPoint, source_se: str = "") -> PolarMeasurement:
    """Express a world point as the exact noise-free measurement the SE would take.

    Raises :class:`DegenerateGeometryError` when the point coincides with the
    SE position, where bearing is undefined.
    """
    dx = p.x - pose.x
    dy = p.y - pose.y
    r = math.sqrt(dx * dx + dy * dy)
    if r == 0.0:
        raise DegenerateGeometryError(
            f"cannot take a bearing to a point at the SE position ({pose.x}, {pose.y})"
        )
    bearing = wrap_angle(math.atan2(dy, dx) - pose.theta)
    return PolarMeasurement(r, bearing, source_se=source_se)


def sample_measurement(
    pose: Pose,
    target: WorldPoint,
    noise: NoiseModel,
    rng: np.random.Generator,
    source_se: str = "",
    _max_redraws: int = 1000,
) -> PolarMeasurement:
    """Draw one noisy measurement of ``target``.

    Range noise samples that push the range to zero or below are redrawn, so
    the returned range is always positive; the bearing is wrapped to
    (-pi, pi].  The redraw cap only guards against pathological noise scales.
    """
    z0 = world_to_polar(pose, target, source_se=source_se)
    r = z0.range_m + noise.sigma_range * rng.standard_normal()
    redraws = 0
    while r <= 0.0:
        redraws += 1
        if redraws > _max_redraws:
            raise RuntimeError(
                f"range redraw cap exceeded at range {z0.range_m} with sigma {noise.sigma_range}"
            )
        r = z0.range_m + noise.sigma_range * rng.standard_normal()
    bearing = wrap_angle(z0.bearing + noise.sigma_bearing * rng.standard_normal())
    return PolarMeasurement(r, bearing, source_se=source_se)


def sample_measurements(
    pose: Pose,
    points: np.ndarray,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`sample_measurement` over an (n, 2) array of world points.

    Returns (ranges, bearings).  Consumes the generator differently from the
    scalar form, so the two are interchangeable only in distribution.
    """
    pts = np.asarray(points, dtype=float)
    dx = pts[:, 0] - pose.x
    dy = pts[:, 1] - pose.y
    r0 = np.sqrt(dx * dx + dy * dy)
    if np.any(r0 == 0.0):
        raise DegenerateGeometryError("cannot take a bearing to a point at the SE position")
    b0 = wrap_angles(np.arctan2(dy, dx) - pose.theta)
    r = r0 + noise.sigma_range * rng.standard_normal(len(pts))
    bad = r <= 0.0
    while np.any(bad):
        r[bad] = r0[bad] + noise.sigma_range * rng.standard_normal(int(bad.sum()))
        bad = r <= 0.0
    b = wrap_angles(b0 + noise.sigma_bearing * rng.standard_normal(len(pts)))
    return r, b


Cov = tuple[float, float, float]  # a symmetric 2x2 covariance's xx, xy, yy


def rotated_covariance(range_m: float, angle: float, noise: NoiseModel) -> Cov:
    """The polar noise ellipse diag(sigma_r^2, (r*sigma_b)^2) rotated by ``angle``.

    With ``angle`` the bearing this is the first-order propagation
    J @ diag(sigma_r^2, sigma_b^2) @ J.T into the SE-local frame, J the
    Jacobian R(bearing) @ diag(1, range) of the polar-to-Cartesian map.
    """
    a = noise.sigma_range * noise.sigma_range
    rb = range_m * noise.sigma_bearing
    b = rb * rb
    c = math.cos(angle)
    s = math.sin(angle)
    return (a * c * c + b * s * s, (a - b) * c * s, a * s * s + b * c * c)


def cov_matrix(cov: Cov) -> np.ndarray:
    """The covariance as a full symmetric 2x2 matrix."""
    xx, xy, yy = cov
    return np.array([[xx, xy], [xy, yy]])


def world_covariance(pose: Pose, z: PolarMeasurement, noise: NoiseModel) -> Cov:
    """Propagated covariance expressed in the world frame.

    The local ellipse rides with the line of sight, so the world-frame matrix
    is the same ellipse rotated by (pose heading + bearing).
    """
    return rotated_covariance(z.range_m, pose.theta + z.bearing, noise)


def build_detection(
    pose: Pose, z: PolarMeasurement, noise: NoiseModel
) -> tuple[WorldPoint, Cov]:
    """A world-frame detection's position and covariance from a polar measurement."""
    return polar_to_world(pose, z), world_covariance(pose, z, noise)


# -- scenario ----------------------------------------------------------------------


def target_position(track: TargetTrack, t: int) -> WorldPoint:
    """Target position at integer step t >= 0."""
    if t < 0:
        raise ValueError(f"step index must be >= 0, got {t}")
    return WorldPoint(
        track.start.x + t * track.velocity[0],
        track.start.y + t * track.velocity[1],
    )


def generate_frame(scenario: Scenario, t: int, rng: np.random.Generator) -> Frame:
    """Generate the frame for step ``t``, as a one-step realization.

    Truth lists every target inside the closed bounds.  For each SE and each
    in-area target a detection is included with probability p_det, drawn
    through the noisy polar pipeline.  Clutter points are assigned to SEs
    round-robin and enter as detections at their sampled position.
    """
    return replace(_frames(scenario, _realize(scenario, (t,), rng))[0], t=t)


def generate_clutter(
    clutter: ClutterModel, static_map: StaticMap, bounds: Rect, rng: np.random.Generator
) -> np.ndarray:
    """One frame's clutter positions as a (k, 2) array, from the package's generator."""
    scenario = Scenario(
        bounds=bounds,
        static_map=static_map,
        se_poses=(Pose(bounds.x_min, bounds.y_min, 0.0),),
        se_ids=("se-0",),
        noise=NoiseModel(1.0, 0.01),
        p_det=0.0,
        clutter=clutter,
        tracks=(),
        t_steps=1,
        seed=0,
    )
    return generate_realization(scenario, rng).xy


# The block draw order of the ``scenario`` docstring, one point at a time.


def clipped_edges(static_map: StaticMap, bounds: Rect) -> list[Segment]:
    """The map's building edges inside the bounds.

    Each edge is axis-aligned.  It is dropped when its fixed coordinate lies
    outside the bounds; otherwise both ends are clamped into the bounds, and
    it is dropped when that leaves it with no length.
    """
    lo, hi = (bounds.x_min, bounds.y_min), (bounds.x_max, bounds.y_max)
    kept = []
    for a, b in static_map.all_edges():
        if any(a[i] == b[i] and not lo[i] <= a[i] <= hi[i] for i in (0, 1)):
            continue
        a, b = (tuple(min(max(p[i], lo[i]), hi[i]) for i in (0, 1)) for p in (a, b))
        if a != b:
            kept.append((a, b))
    return kept


def block_clutter(
    clutter: ClutterModel,
    static_map: StaticMap,
    bounds: Rect,
    n_frames: int,
    rng: np.random.Generator,
) -> list[list[tuple[float, float]]]:
    """``n_frames`` frames of clutter points drawn in the block order, per frame."""
    x_min, y_min, x_max, y_max = bounds.as_tuple()
    segments = clipped_edges(static_map, bounds)
    sigma = clutter.edge_jitter_sigma

    def edge_points(n: int) -> list[tuple[float, float]]:
        idx = rng.integers(0, len(segments), n).tolist()
        lerp = rng.random(n).tolist()
        jitter = rng.standard_normal((n, 2)).tolist()
        points = []
        for i, t, (zx, zy) in zip(idx, lerp, jitter):
            (ax, ay), (bx, by) = segments[i]
            x = ax * (1.0 - t) + bx * t + sigma * zx
            y = ay * (1.0 - t) + by * t + sigma * zy
            points.append((x, y))
        return points

    counts = rng.poisson(clutter.lambda_fa, n_frames).tolist()
    edge = [u < clutter.edge_fraction and bool(segments) for u in rng.random(sum(counts)).tolist()]
    n = sum(edge)
    pts = edge_points(n) if n else []
    for _ in range(10):
        bad = [
            i for i, (x, y) in enumerate(pts) if not (x_min <= x <= x_max and y_min <= y <= y_max)
        ]
        if not bad:
            break
        for i, point in zip(bad, edge_points(len(bad))):
            pts[i] = point
    else:
        pts = [(min(max(x, x_min), x_max), min(max(y, y_min), y_max)) for x, y in pts]
    edge_iter = iter(pts)
    uniform = iter(
        (x_min + (x_max - x_min) * ux, y_min + (y_max - y_min) * uy)
        for ux, uy in rng.random((len(edge) - n, 2)).tolist()
    )
    points = [next(edge_iter) if e else next(uniform) for e in edge]
    ends = np.cumsum(counts).tolist()
    return [points[end - k : end] for k, end in zip(counts, ends)]


def block_frames(scenario: Scenario, steps: Sequence[int], rng: np.random.Generator) -> list[Frame]:
    """The frames at ``steps`` drawn in the block order, built point by point.

    The generator calls are the ``scenario`` docstring's; every position is
    computed from them with scalar ``math``.
    """
    poses, noise = scenario.se_poses, scenario.noise
    truth = [
        tuple(
            (track.id, pos)
            for track in scenario.tracks
            if rect_contains(scenario.bounds, pos := target_position(track, t))
        )
        for t in steps
    ]
    pairs = [
        (i, s, pos) for i, seen in enumerate(truth) for s in range(len(poses)) for _, pos in seen
    ]
    hits = [pair for pair, u in zip(pairs, rng.random(len(pairs)).tolist()) if u < scenario.p_det]
    polar = [world_to_polar(poses[s], pos) for _, s, pos in hits]  # raises at the first zero range
    normals = rng.standard_normal(len(hits)).tolist()
    ranges = [z.range_m + noise.sigma_range * n for z, n in zip(polar, normals)]
    rounds = 0
    while bad := [j for j, r in enumerate(ranges) if r <= 0.0]:
        rounds += 1
        if rounds > 1000:
            raise RuntimeError(
                f"range redraw cap exceeded at range {polar[bad[0]].range_m} with sigma "
                f"{noise.sigma_range}"
            )
        for j, n in zip(bad, rng.standard_normal(len(bad)).tolist()):
            ranges[j] = polar[j].range_m + noise.sigma_range * n
    rows: list[list[tuple[float, float, int, bool]]] = [[] for _ in steps]
    for (i, s, _), z, r, n in zip(hits, polar, ranges, rng.standard_normal(len(hits)).tolist()):
        bearing = wrap_angle(z.bearing + noise.sigma_bearing * n)
        point = polar_to_world(poses[s], PolarMeasurement(r, bearing))
        rows[i].append((point.x, point.y, s, False))
    clutter = block_clutter(scenario.clutter, scenario.static_map, scenario.bounds, len(steps), rng)
    frames = []
    for t, seen, frame_rows, xy in zip(steps, truth, rows, clutter):
        frame_rows += [(x, y, j % len(poses), True) for j, (x, y) in enumerate(xy)]
        detections = DetectionColumns(
            xy=np.array([(x, y) for x, y, *_ in frame_rows]).reshape(-1, 2),
            se_idx=np.array([s for *_, s, _ in frame_rows], dtype=np.intp),
            se_ids=scenario.se_ids,
            is_clutter=np.array([flag for *_, flag in frame_rows], dtype=bool),
        )
        frames.append(Frame(t=t, detections=detections, truth=seen))
    return frames


# The frame draw order, kept as the reference for the generator's
# distribution: the draws that every golden digest pinned before the block
# order replaced it.  ``scenario._draw`` set to :func:`frame_order_draw` makes
# the package generate exactly what it generated then.


class FrameOrderClutterSampler:
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


def frame_order_draw(
    scenario: Scenario, truth_in: np.ndarray, r0: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Every generator call of a realization, frame by frame in the frame draw order.

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
    sampler = FrameOrderClutterSampler(scenario.clutter, scenario.static_map, scenario.bounds)
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


# -- fusion ------------------------------------------------------------------------


def precompute_distances(frames: Sequence[Frame], static_map: StaticMap) -> FrameDistances:
    """Pack a ``Frame`` sequence into the tensors of :func:`detection_distances`."""
    ids = sorted({tid for f in frames for tid, _ in f.truth})
    col = {tid: n for n, tid in enumerate(ids)}
    truth_xy = np.zeros((len(frames), len(ids), 2))
    truth_in = np.zeros((len(frames), len(ids)), dtype=bool)
    for t, frame in enumerate(frames):
        for tid, p in frame.truth:
            truth_xy[t, col[tid]] = p.x, p.y
            truth_in[t, col[tid]] = True
    xy = np.concatenate([np.empty((0, 2))] + [f.detections.xy for f in frames])
    frame_of = np.repeat(np.arange(len(frames)), [len(f.detections) for f in frames])
    return detection_distances(xy, frame_of, truth_xy, truth_in, ids, static_map)


def fused_metrics(fd: FrameDistances, margin: float, gate: float) -> MetricResult:
    """Pd/FA of the whole frame sequence in the kernel's one cell ``(margin, gate)``."""
    cell = grid_arrays(fd, np.array([margin]), np.array([gate]))
    (pd,), (pd_avg,), (fa_avg,) = (a.tolist() for a in cell)
    return MetricResult(dict(zip(fd.target_ids, pd)), pd_avg, fa_avg)


def result_from_counts(
    target_ids: Sequence[int],
    successes: Sequence[int],
    steps: Sequence[int],
    fa_total: int,
    t_total: int,
) -> MetricResult:
    """Build a ``MetricResult`` from raw counters, each target with ``steps > 0``.

    Raises ``EmptyRunError`` when no frame was counted.
    """
    if t_total <= 0:
        raise EmptyRunError(f"t_total must be >= 1, got {t_total}")
    pd_per_target = {tid: succ / n for tid, succ, n in zip(target_ids, successes, steps)}
    if pd_per_target:
        pd_avg = float(np.mean([pd_per_target[tid] for tid in sorted(pd_per_target)]))
    else:
        pd_avg = math.nan
    return MetricResult(pd_per_target=pd_per_target, pd_avg=pd_avg, fa_avg=fa_total / t_total)


# -- geometry ----------------------------------------------------------------------


def rect_contains(rect: Rect, p: WorldPoint) -> bool:
    """Closed-rectangle membership; boundary points count as inside."""
    return rect.x_min <= p.x <= rect.x_max and rect.y_min <= p.y <= rect.y_max


def rect_distance_sq(p: WorldPoint, rect: Rect) -> float:
    """Squared Euclidean distance from a point to a closed rectangle (0 inside)."""
    dx = max(rect.x_min - p.x, 0.0, p.x - rect.x_max)
    dy = max(rect.y_min - p.y, 0.0, p.y - rect.y_max)
    return dx * dx + dy * dy


def rect_distance(p: WorldPoint, rect: Rect) -> float:
    """Euclidean distance from a point to a closed rectangle.

    Zero for points inside or on the boundary.  Outside, this is the distance
    to the nearest edge or corner; for example (13, 14) against the unit
    square scaled to [0, 10] x [0, 10] gives sqrt(3^2 + 4^2) = 5.
    """
    return math.sqrt(rect_distance_sq(p, rect))


def min_distance_sq(static_map: StaticMap, p: WorldPoint) -> float:
    """Squared distance to the nearest rect; +inf for an empty map."""
    if not static_map.rects:
        return math.inf
    return min(rect_distance_sq(p, r) for r in static_map.rects)


def min_distance(static_map: StaticMap, p: WorldPoint) -> float:
    return math.sqrt(min_distance_sq(static_map, p))


def in_dilated_map(p: WorldPoint, static_map: StaticMap, g: float) -> bool:
    """Membership test against the map dilated by a disk of radius ``g``.

    Equivalent to ``min_r rect_distance(p, r) <= g``.  Points exactly at
    distance ``g`` count as inside, so the dilated region is closed.  An empty
    map contains nothing for any margin.
    """
    if not math.isfinite(g) or g < 0.0:
        raise ValueError(f"dilation margin must be finite and >= 0, got {g}")
    if static_map.empty:
        return False
    # Compare in squared space so batch and scalar callers agree bit for bit.
    return min_distance_sq(static_map, p) <= g * g


# -- callflow ----------------------------------------------------------------------


def read_trace(path: str | Path) -> list[TraceEvent]:
    events = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                d = json.loads(line)
                events.append(
                    TraceEvent(d["step"], d["sender"], d["receiver"], d["variant"], d["stid"])
                )
    return events


def fetch(
    records: Sequence[SensingRecord], ctx: SensingContext, now: int, max_age: float
) -> list[SensingRecord]:
    """``SdsfStore.fetch``: overlapping live records no older than ``max_age``, newest first."""
    hits = [
        r
        for r in records
        if not r.expired(now)
        and now - r.created_at <= max_age
        and r.context.target_type in (ctx.target_type, "unknown")
        and max(r.context.time_window[0], ctx.time_window[0])
        <= min(r.context.time_window[1], ctx.time_window[1])
        and r.context.area.intersects(ctx.area)
    ]
    return sorted(hits, key=lambda r: (-r.created_at, r.record_id))


def availability(
    records: Sequence[SensingRecord], ctx: SensingContext, now: int, max_age: float
) -> Availability:
    """``sdsf_store.availability`` over :func:`fetch`, one clipped portion per record.

    The portions are subtracted in fetch order, so that the uncovered area
    comes back tiled as the store tiles it.
    """
    fetched = fetch(records, ctx, now, max_age)
    if not fetched:
        return Availability(status="missing", missing_portions=(ctx,))
    t0, t1 = ctx.time_window
    areas = [r.context.area.intersection(ctx.area) for r in fetched]
    windows = [
        (max(r.context.time_window[0], t0), min(r.context.time_window[1], t1)) for r in fetched
    ]
    uncovered_rects = subtract_rects(ctx.area, areas)
    uncovered_windows = _subtract_window(ctx.time_window, windows)
    if not uncovered_rects and not uncovered_windows:
        return Availability(status="exists")
    missing = [
        SensingContext(rect, ctx.time_window, ctx.target_type) for rect in uncovered_rects
    ] + [SensingContext(ctx.area, win, ctx.target_type) for win in uncovered_windows]
    return Availability(status="partial", missing_portions=tuple(missing))
