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

One batch kernel serves both the sweep and the call flow.  Distances are
computed once per frame sequence (:func:`precompute_distances`); each filter
configuration is then a boolean thresholding pass over the same tensors
(:func:`evaluate_distances`, :func:`fused_metrics`).  Distances are compared in
squared form so the kernel agrees bit for bit with the scalar
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
    """Squared-distance tensors for a sequence of frames.

    Shapes: (T, J) for detection-to-map and validity, (T, J, N) for
    detection-to-target, (T, N) for target in-area flags, where J is the
    maximum detection count over the frames and N the number of distinct
    target ids observed.  Padding entries carry +inf distances and False
    validity.
    """

    map_dist_sq: np.ndarray
    target_dist_sq: np.ndarray
    det_valid: np.ndarray
    target_inbounds: np.ndarray
    target_ids: tuple[int, ...]


def precompute_distances(
    frames: Sequence[Frame], static_map: StaticMap | None
) -> FrameDistances:
    """Extract the distance tensors that masking and gating threshold against.

    ``static_map=None`` means no map: every detection is infinitely far from
    it, so the mask keeps everything at any margin.
    """
    t_steps = len(frames)
    ids = sorted({tid for f in frames for tid, _ in f.truth})
    col = {tid: i for i, tid in enumerate(ids)}
    n_targets = len(ids)
    j_max = max((len(f.detections) for f in frames), default=0)

    map_dist_sq = np.full((t_steps, j_max), np.inf)
    target_dist_sq = np.full((t_steps, j_max, n_targets), np.inf)
    det_valid = np.zeros((t_steps, j_max), dtype=bool)
    target_inbounds = np.zeros((t_steps, n_targets), dtype=bool)

    for t, frame in enumerate(frames):
        n_det = len(frame.detections)
        if n_det:
            xy = np.array([(d.point.x, d.point.y) for d in frame.detections])
            det_valid[t, :n_det] = True
            if static_map is not None:
                map_dist_sq[t, :n_det] = static_map.min_distance_sq_many(xy)
            if frame.truth:
                txy = np.array([(p.x, p.y) for _, p in frame.truth])
                diff = xy[:, None, :] - txy[None, :, :]
                dist_sq = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
                cols = [col[tid] for tid, _ in frame.truth]
                target_dist_sq[t, :n_det, cols] = dist_sq.T
        for tid, _ in frame.truth:
            target_inbounds[t, col[tid]] = True

    return FrameDistances(
        map_dist_sq=map_dist_sq,
        target_dist_sq=target_dist_sq,
        det_valid=det_valid,
        target_inbounds=target_inbounds,
        target_ids=tuple(ids),
    )


def evaluate_distances(
    fd: FrameDistances, fc: FilterConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold precomputed distances under one filter configuration.

    Returns ``(detected, unmatched)`` where detected is (T, N) bool aligned
    with ``fd.target_ids`` and unmatched is the per-frame false-alarm count.
    """
    if fc.mask_enabled:
        g_sq = fc.mask_margin_g * fc.mask_margin_g
        keep = fd.det_valid & (fd.map_dist_sq > g_sq)
    else:
        keep = fd.det_valid
    gate_sq = fc.gate_g_det * fc.gate_g_det
    within = fd.target_dist_sq <= gate_sq  # padding is +inf, never within
    detected = (within & keep[:, :, None]).any(axis=1)
    unmatched = (keep & ~within.any(axis=2)).sum(axis=1)
    return detected, unmatched


def fused_metrics(fd: FrameDistances, fc: FilterConfig) -> MetricResult:
    """Pd/FA of the whole frame sequence under one filter configuration."""
    detected, unmatched = evaluate_distances(fd, fc)
    successes = (detected & fd.target_inbounds).sum(axis=0)
    steps = fd.target_inbounds.sum(axis=0)
    return result_from_counts(
        fd.target_ids,
        [int(s) for s in successes],
        [int(s) for s in steps],
        int(unmatched.sum()),
        len(fd.det_valid),
    )
