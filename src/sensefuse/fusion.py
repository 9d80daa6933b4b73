"""Map-aware filtering and validation gating.

The pipeline is two hard decisions applied to each frame's pooled detections:

1. mask: drop every detection whose back-projected position falls inside the
   static map dilated by the margin ``g`` (when masking is enabled);
2. gate: a target counts as detected when any surviving detection lies within
   the Euclidean gate ``g_det`` of its true position, and a surviving
   detection counts as a false alarm when no true target lies within
   ``g_det`` of it.

Gating is a pure distance-threshold test per side; there is deliberately no
one-to-one assignment between detections and targets.

One kernel serves both the sweep and the call flow.  Distances are computed
once per frame sequence by :func:`detection_distances` from a realization's
flat arrays, which is what both of them call; :func:`precompute_distances`
packs ``Frame`` lists into the same input for tests.  :func:`grid_metrics`
then evaluates one gate for every mask margin at once in closed form: a
target is detected at margin ``g`` when the detection inside its gate that
lies farthest from the map is more than ``g`` from it, and the false alarms at
``g`` are the gate-unmatched detections more than ``g`` from the map.
:func:`fused_metrics` is the one-cell case.  Distances are compared in squared
form so the kernel agrees bit for bit with the scalar
``geometry.in_dilated_map`` spec.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import StaticMap
from .metrics import MetricResult, result_from_counts
from .scenario import Frame


@dataclass(frozen=True, slots=True)
class FilterConfig:
    """Fusion knobs: mask margin, validation gate, and the mask switch."""

    mask_margin_g: float = 0.0
    gate_g_det: float = 3.0
    mask_enabled: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mask_margin_g) and self.mask_margin_g >= 0.0):
            raise ValueError(f"mask_margin_g must be finite and >= 0, got {self.mask_margin_g}")
        if not (math.isfinite(self.gate_g_det) and self.gate_g_det > 0.0):
            raise ValueError(f"gate_g_det must be finite and > 0, got {self.gate_g_det}")


@dataclass(frozen=True)
class FrameDistances:
    """Squared-distance tensors for a sequence of frames, one row per detection.

    Shapes: (D,) for detection-to-map distance and the detection's frame
    index, (D, N) for detection-to-target, (T, N) for target in-area flags,
    where D counts the detections of all T frames and N the distinct target
    ids observed, in ascending order.  A target outside the area in a
    detection's frame is +inf away from it.
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
    static_map: StaticMap | None,
) -> FrameDistances:
    """Distance tensors of (D, 2) detections against (T, N) per-frame truth.

    ``target_ids`` names the truth columns; columns never in the area are
    dropped and the rest ordered by id.  ``static_map=None`` means no map:
    every detection is infinitely far from it, so the mask keeps everything
    at any margin.
    """
    cols = sorted((tid, n) for n, tid in enumerate(target_ids) if truth_in[:, n].any())
    keep = [n for _, n in cols]
    truth_xy, truth_in = truth_xy[:, keep], truth_in[:, keep]
    diff = xy[:, None, :] - truth_xy[frame_of]
    dist_sq = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
    return FrameDistances(
        map_dist_sq=(
            np.full(len(xy), np.inf) if static_map is None else static_map.min_distance_sq_many(xy)
        ),
        target_dist_sq=np.where(truth_in[frame_of], dist_sq, np.inf),
        frame_of=frame_of,
        target_inbounds=truth_in,
        target_ids=tuple(tid for tid, _ in cols),
    )


def precompute_distances(
    frames: Sequence[Frame], static_map: StaticMap | None
) -> FrameDistances:
    """Pack a ``Frame`` sequence into the tensors of :func:`detection_distances`."""
    ids = sorted({tid for f in frames for tid, _ in f.truth})
    col = {tid: n for n, tid in enumerate(ids)}
    truth_xy = np.zeros((len(frames), len(ids), 2))
    truth_in = np.zeros((len(frames), len(ids)), dtype=bool)
    for t, frame in enumerate(frames):
        for tid, p in frame.truth:
            truth_xy[t, col[tid]] = p.x, p.y
            truth_in[t, col[tid]] = True
    xy = np.array([(d.point.x, d.point.y) for f in frames for d in f.detections]).reshape(-1, 2)
    frame_of = np.repeat(np.arange(len(frames)), [len(f.detections) for f in frames])
    return detection_distances(xy, frame_of, truth_xy, truth_in, ids, static_map)


def _mask_sq(fc: FilterConfig) -> float:
    # Squared distance from the map a detection must exceed; -inf keeps all.
    return fc.mask_margin_g * fc.mask_margin_g if fc.mask_enabled else -math.inf


def grid_metrics(fd: FrameDistances, configs: Sequence[FilterConfig]) -> list[MetricResult]:
    """Pd/FA of the frame sequence under each filter configuration.

    Configurations that share a gate are evaluated together in one pass.
    """
    steps, n_frames = fd.target_inbounds.sum(axis=0).tolist(), len(fd.target_inbounds)
    results: dict[int, MetricResult] = {}
    for gate in dict.fromkeys(fc.gate_g_det for fc in configs):
        cells = [i for i, fc in enumerate(configs) if fc.gate_g_det == gate]
        thresholds = np.array([_mask_sq(configs[i]) for i in cells])
        within = fd.target_dist_sq <= gate * gate
        det, col = np.nonzero(within)
        # best[t, n]: map distance of the gated detection of target n farthest from the map.
        best = np.full(fd.target_inbounds.shape, -np.inf)
        np.maximum.at(best, (fd.frame_of[det], col), fd.map_dist_sq[det])
        successes = (best > thresholds[:, None, None]).sum(axis=1)
        unmatched = np.sort(fd.map_dist_sq[~within.any(axis=1)])
        false_alarms = len(unmatched) - np.searchsorted(unmatched, thresholds, side="right")
        for i, s, fa in zip(cells, successes, false_alarms):
            results[i] = result_from_counts(fd.target_ids, s.tolist(), steps, int(fa), n_frames)
    return [results[i] for i in range(len(configs))]


def fused_metrics(fd: FrameDistances, fc: FilterConfig) -> MetricResult:
    """Pd/FA of the whole frame sequence under one filter configuration."""
    return grid_metrics(fd, [fc])[0]
