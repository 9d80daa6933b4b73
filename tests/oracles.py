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
* :func:`generate_frame`, one step of a realization as a ``Frame``,
  :func:`generate_clutter`, one frame's clutter from a fresh sampler, and
  :func:`clutter_frame`, the same draws with nothing hoisted;
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
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from sensefuse.callflow import TraceEvent
from sensefuse.errors import DegenerateGeometryError, EmptyRunError
from sensefuse.fusion import FrameDistances, detection_distances, grid_arrays
from sensefuse.geometry import Rect, StaticMap, WorldPoint, subtract_rects
from sensefuse.measurement import NoiseModel, Pose, wrap_angle, wrap_angles
from sensefuse.metrics import MetricResult
from sensefuse.scenario import (
    ClutterModel,
    Frame,
    Scenario,
    TargetTrack,
    _ClutterSampler,
    _frames,
    _realize,
)
from sensefuse.sdsf_store import Availability, SensingContext, SensingRecord, _subtract_window


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
    """Generate the frame for step ``t``.

    Truth lists every target inside the closed bounds.  For each SE and each
    in-area target a detection is included with probability p_det, drawn
    through the noisy polar pipeline.  Clutter points are assigned to SEs
    round-robin and enter as detections at their sampled position with the
    viewing SE's covariance.
    """
    return replace(_frames(scenario, _realize(scenario, (t,), rng))[0], t=t)


def generate_clutter(
    clutter: ClutterModel, static_map: StaticMap, bounds: Rect, rng: np.random.Generator
) -> np.ndarray:
    """Draw one frame's clutter positions as a (k, 2) array, with a fresh sampler."""
    sampler = _ClutterSampler(clutter, static_map, bounds)
    sampler.draw(rng)
    return sampler.points()


def clutter_frame(
    clutter: ClutterModel, static_map: StaticMap, bounds: Rect, rng: np.random.Generator
) -> np.ndarray:
    """One frame's clutter as ``generate_clutter`` draws it, built from scratch per call.

    The segments and bounds are rebuilt here on every call, coordinates are
    checked and clamped one axis at a time, and the uniform share comes from
    ``rng.uniform``, so the generator's hoisted body is checked against the
    plain per-frame form of the same draws.
    """
    k = int(rng.poisson(clutter.lambda_fa))
    if k == 0:
        return np.empty((0, 2))
    edge_mask = rng.random(k) < clutter.edge_fraction
    segments = static_map.all_edges()
    if not segments:
        edge_mask[:] = False

    def edge_points(n: int) -> np.ndarray:
        seg_arr = np.asarray(segments)
        idx = rng.integers(0, len(seg_arr), n)
        tpar = rng.random(n)[:, None]
        base = seg_arr[idx, 0] * (1.0 - tpar) + seg_arr[idx, 1] * tpar
        return base + clutter.edge_jitter_sigma * rng.standard_normal((n, 2))

    xy = np.empty((k, 2))
    n_edge = int(edge_mask.sum())
    if n_edge:
        pts = edge_points(n_edge)
        for _ in range(10):
            bad = ~(
                (pts[:, 0] >= bounds.x_min)
                & (pts[:, 0] <= bounds.x_max)
                & (pts[:, 1] >= bounds.y_min)
                & (pts[:, 1] <= bounds.y_max)
            )
            if not bad.any():
                break
            pts[bad] = edge_points(int(bad.sum()))
        np.clip(pts[:, 0], bounds.x_min, bounds.x_max, out=pts[:, 0])
        np.clip(pts[:, 1], bounds.y_min, bounds.y_max, out=pts[:, 1])
        xy[edge_mask] = pts
    if k - n_edge:
        xy[~edge_mask] = rng.uniform(
            (bounds.x_min, bounds.y_min), (bounds.x_max, bounds.y_max), (k - n_edge, 2)
        )
    return xy


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
