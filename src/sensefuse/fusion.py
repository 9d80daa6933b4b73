"""Map-aware filtering and validation gating.

The pipeline is two hard decisions applied to each frame's pooled detections:

1. mask: drop every detection whose back-projected position falls inside the
   static map dilated by the margin ``g``; an empty map drops nothing;
2. gate: a target counts as detected when any surviving detection lies within
   the Euclidean gate ``g_det`` of its true position, and a surviving
   detection counts as a false alarm when no true target lies within
   ``g_det`` of it.

Gating is a pure distance-threshold test per side; there is deliberately no
one-to-one assignment between detections and targets.

The filter is two numbers, ``g`` and ``g_det``.  One kernel serves both the
sweep and the call flow: :func:`grid_arrays`, which the sweep calls with
every cell and the call flow through :func:`realization_metrics` with one.
Distances are computed once per realization by :func:`detection_distances`,
one contiguous row of takes by frame per target.  The kernel then evaluates
every (mask margin, gate) cell at once in closed form: a target is detected
at margin ``g`` when the detection inside its gate that lies farthest from
the map is more than ``g`` from it, and the false alarms at ``g`` are the
gate-unmatched detections more than ``g`` from the map.  The detection-target
pairs inside the widest gate are found once, and each is assigned to the
narrowest gate that holds it.  Each matched detection gets a rank, the number
of mask thresholds its map distance exceeds.  One scatter of the ranks into a
(gates, targets, frames) array, carried from each gate to the next wider one,
gives every gate its farthest gated detection per target and frame, and one
histogram of that array gives every cell's Pd.  A cell's false alarms are the
detections its threshold keeps, counted from one sort of the map distances,
less the matched ones among them, counted from one histogram of gate and
rank.  Distances are compared in squared form so the kernel agrees bit for
bit with the scalar dilated-map membership spec the tests hold
(``in_dilated_map`` in ``tests/oracles.py``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyRunError
from .geometry import StaticMap
from .metrics import MetricResult
from .scenario import Realization, Scenario


@dataclass(frozen=True)
class FrameDistances:
    """Squared-distance tensors for a sequence of frames, one row per detection.

    Shapes: (D,) for detection-to-map distance and the detection's frame
    index, (D, N) for detection-to-target, (T, N) for target in-area flags,
    where D counts the detections of all T frames and N the target ids in
    ascending order.  Every target is inside the area in at least one frame,
    and one outside the area in a detection's frame is +inf away from it.
    """

    map_dist_sq: np.ndarray
    target_dist_sq: np.ndarray
    frame_of: np.ndarray
    target_inbounds: np.ndarray
    target_ids: tuple[int, ...]


def detection_distances(
    xy: np.ndarray,
    frame_of: np.ndarray,
    truth_xy: np.ndarray,
    truth_in: np.ndarray,
    target_ids: Sequence[int],
    static_map: StaticMap,
) -> FrameDistances:
    """Distance tensors of (D, 2) finite detections against (T, N) per-frame truth.

    ``target_ids`` names the truth columns; columns never in the area are
    dropped and the rest ordered by id.  Every detection is +inf from an
    empty map, so its mask keeps everything at any margin.
    ``target_dist_sq`` is the transpose of a row-major (N, D) array, so each
    target's distances are contiguous.
    """
    cols = sorted((tid, n) for n, tid in enumerate(target_ids) if truth_in[:, n].any())
    keep = [n for _, n in cols]
    inside = truth_in[:, keep]
    # Each target's coordinates per frame, +inf where it is outside the area:
    # a finite detection is then +inf away from it in that frame.
    tx, ty = (np.where(inside, truth_xy[:, keep, k], np.inf).T.copy() for k in (0, 1))
    x, y = np.ascontiguousarray(xy.T)
    dist_sq = np.empty((len(keep), len(xy)))
    for row, row_x, row_y in zip(dist_sq, tx, ty):
        dx = x - row_x.take(frame_of)
        dy = y - row_y.take(frame_of)
        dx *= dx
        dy *= dy
        np.add(dx, dy, out=row)
    return FrameDistances(
        map_dist_sq=static_map.min_distance_sq_many(xy),
        target_dist_sq=dist_sq.T,
        frame_of=frame_of,
        target_inbounds=inside,
        target_ids=tuple(tid for tid, _ in cols),
    )


def realization_distances(
    scenario: Scenario, rz: Realization, static_map: StaticMap
) -> FrameDistances:
    """Distance tensors of one realization of ``scenario`` against ``static_map``."""
    ids = [track.id for track in scenario.tracks]
    return detection_distances(rz.xy, rz.frame_of, rz.truth_xy, rz.truth_in, ids, static_map)


def _above(counts: np.ndarray) -> np.ndarray:
    # counts[..., v] of values 0..M -> [..., m], the count of values above m, for m < M.
    return np.cumsum(counts[..., :0:-1], axis=-1)[..., ::-1]


def grid_arrays(
    fd: FrameDistances, margins: np.ndarray, gates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pd/FA of the frame sequence in each cell, as arrays.

    Cell ``i`` keeps the detections more than ``margins[i]`` from the map,
    where a negative margin turns the mask off, and gates at ``gates[i]``.
    Returns ``pd``, (cells, targets) in ``target_ids`` order, and ``pd_avg``
    and ``fa_avg``, (cells,); ``pd_avg`` is NaN when there is no target.
    Raises :class:`EmptyRunError` on zero frames.
    """
    n_frames, n_targets = fd.target_inbounds.shape
    if n_frames == 0:
        raise EmptyRunError("cannot compute metrics over zero frames")
    # Each distance becomes a small integer.  A pair's level is the narrowest
    # gate that holds it (it is held at that level and wider), and a
    # detection's rank is the number of squared margins (limits) its squared
    # map distance exceeds (it is kept at those limits); -inf keeps everything.
    levels, level_of = np.unique(gates, return_inverse=True)
    limits = np.where(margins < 0.0, -np.inf, margins * margins)
    limits, limit_of = np.unique(limits, return_inverse=True)
    level_sq = levels * levels
    n_levels, n_limits = len(levels), len(limits)
    dist = fd.target_dist_sq.T
    pairs = np.flatnonzero(dist <= level_sq.max(initial=-np.inf))
    col, det = np.divmod(pairs, dist.shape[1])
    level = np.searchsorted(level_sq, dist.take(pairs))
    # A detection is matched from its nearest pair's level on; only matched
    # detections need a rank.
    match = np.full(dist.shape[1], n_levels)
    np.minimum.at(match, det, level)
    matched = np.flatnonzero(match < n_levels)
    rank = np.zeros(dist.shape[1], dtype=np.intp)
    rank[matched] = np.searchsorted(limits, fd.map_dist_sq[matched])

    # best[k, n, t]: the highest rank among frame t's detections that gate k
    # holds for target n; the target is detected at every limit m < best.
    best = np.zeros((n_levels, n_targets, n_frames), dtype=np.intp)
    slot = (level * n_targets + col) * n_frames + fd.frame_of[det]
    np.maximum.at(best.reshape(-1), slot, rank[det])
    for wider, narrower in zip(best[1:], best):
        np.maximum(wider, narrower, out=wider)
    # One histogram of best per (gate, target), in bins of width n_limits + 1.
    bins = n_limits + 1
    hist_of = np.arange(n_levels * n_targets).reshape(n_levels, n_targets, 1) * bins
    counts = np.bincount((best + hist_of).reshape(-1), minlength=n_levels * n_targets * bins)
    successes = _above(counts.reshape(n_levels, n_targets, bins))[level_of, :, limit_of]

    # False alarms: the detections kept at a limit, less the matched ones among them.
    kept = len(fd.map_dist_sq) - np.searchsorted(np.sort(fd.map_dist_sq), limits, side="right")
    matched_counts = np.bincount(match[matched] * bins + rank[matched], minlength=n_levels * bins)
    kept_matched = np.cumsum(_above(matched_counts.reshape(n_levels, bins)), axis=0)
    fa_avg = (kept - kept_matched)[level_of, limit_of] / n_frames

    # The fancy index can come back column-major, where a row's mean sums in
    # another order and can round differently: copy to row-major.
    pd = np.ascontiguousarray(successes) / fd.target_inbounds.sum(axis=0)
    pd_avg = pd.mean(axis=1) if n_targets else np.full(len(gates), math.nan)
    return pd, pd_avg, fa_avg


def realization_metrics(
    scenario: Scenario, rz: Realization, static_map: StaticMap, margin: float, gate: float
) -> MetricResult:
    """Pd/FA of one realization masked with ``static_map`` at ``margin`` and gated at ``gate``."""
    if not (math.isfinite(margin) and margin >= 0.0 and math.isfinite(gate) and gate > 0.0):
        raise ValueError(f"need a finite margin >= 0 and a finite gate > 0, got {margin}, {gate}")
    fd = realization_distances(scenario, rz, static_map)
    cell = grid_arrays(fd, np.array([margin]), np.array([gate]))
    (pd,), (pd_avg,), (fa_avg,) = (a.tolist() for a in cell)
    return MetricResult(dict(zip(fd.target_ids, pd)), pd_avg, fa_avg)
