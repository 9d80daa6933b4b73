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

One kernel serves both the sweep and the call flow, which both call
:func:`realization_metrics`.  Distances are computed once per realization by
:func:`detection_distances` from its flat arrays.  :func:`grid_metrics`
then evaluates one gate for every mask margin at once in closed form: a
target is detected at margin ``g`` when the detection inside its gate that
lies farthest from the map is more than ``g`` from it, and the false alarms at
``g`` are the gate-unmatched detections more than ``g`` from the map.  The
detection-target pairs inside the widest gate and one sort of the map
distances serve every gate, and each gate's Pd is computed as arrays for all
of its cells.  Distances are compared in squared form so the kernel agrees
bit for bit with the scalar dilated-map membership spec the tests hold
(``in_dilated_map`` in ``tests/oracles.py``).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyRunError
from .geometry import StaticMap
from .metrics import MetricResult
from .scenario import Realization, Scenario

log = logging.getLogger(__name__)


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
    # Each target's coordinates as a (D, N) plane, one row per detection.
    dx = xy[:, 0, None] - truth_xy[:, keep, 0].take(frame_of, axis=0)
    dy = xy[:, 1, None] - truth_xy[:, keep, 1].take(frame_of, axis=0)
    dist_sq = dx * dx + dy * dy
    inside = truth_in[:, keep]
    return FrameDistances(
        map_dist_sq=(
            np.full(len(xy), np.inf) if static_map is None else static_map.min_distance_sq_many(xy)
        ),
        target_dist_sq=np.where(inside.take(frame_of, axis=0), dist_sq, np.inf),
        frame_of=frame_of,
        target_inbounds=inside,
        target_ids=tuple(tid for tid, _ in cols),
    )


def _mask_sq(fc: FilterConfig) -> float:
    # Squared distance from the map a detection must exceed; -inf keeps all.
    return fc.mask_margin_g * fc.mask_margin_g if fc.mask_enabled else -math.inf


def grid_metrics(fd: FrameDistances, configs: Sequence[FilterConfig]) -> list[MetricResult]:
    """Pd/FA of the frame sequence under each filter configuration.

    Configurations that share a gate are evaluated together in one pass.
    Targets never inside the area are left out of Pd and listed in every
    result's ``excluded_targets``, with one warning; ``pd_avg`` is NaN when
    no target was inside.  Raises :class:`EmptyRunError` on zero frames.
    """
    steps, n_frames = fd.target_inbounds.sum(axis=0), len(fd.target_inbounds)
    if n_frames == 0:
        raise EmptyRunError("cannot compute metrics over zero frames")
    observed = steps > 0
    ids = [tid for tid, seen in zip(fd.target_ids, observed.tolist()) if seen]
    excluded = tuple(tid for tid, seen in zip(fd.target_ids, observed.tolist()) if not seen)
    if excluded:
        log.warning(
            "targets %s were never inside the sensing area; excluded from pd_avg", list(excluded)
        )
    gates = list(dict.fromkeys(fc.gate_g_det for fc in configs))
    # The (detection, target) pairs inside the widest gate hold every
    # narrower gate's pairs, and a detection's nearest target among them
    # decides whether it is unmatched at any gate.
    widest = max(gates, default=0.0)
    pairs = np.flatnonzero(fd.target_dist_sq <= widest * widest)
    det, col = np.unravel_index(pairs, fd.target_dist_sq.shape)
    pair_sq = fd.target_dist_sq.ravel()[pairs]
    pair_frame, pair_map = fd.frame_of[det], fd.map_dist_sq[det]
    nearest = np.full(len(fd.map_dist_sq), np.inf)
    np.minimum.at(nearest, det, pair_sq)
    # One sort serves every gate: a gate's unmatched detections are a
    # subsequence of the map-distance order.
    order = np.argsort(fd.map_dist_sq)
    map_sorted, nearest = fd.map_dist_sq[order], nearest[order]
    results: dict[int, MetricResult] = {}
    for gate in gates:
        cells = [i for i, fc in enumerate(configs) if fc.gate_g_det == gate]
        thresholds = np.array([_mask_sq(configs[i]) for i in cells])
        inside = pair_sq <= gate * gate
        # best[n, t]: map distance of the gated detection of target n farthest from the map.
        best = np.full(fd.target_inbounds.shape[::-1], -np.inf)
        np.maximum.at(best, (col[inside], pair_frame[inside]), pair_map[inside])
        successes = (best > thresholds[:, None, None]).sum(axis=2)
        unmatched = map_sorted[nearest > gate * gate]
        false_alarms = len(unmatched) - np.searchsorted(unmatched, thresholds, side="right")
        # Selected columns come back column-major, where a row's mean sums
        # in another order and can round differently: copy to row-major.
        pd = np.ascontiguousarray(successes[:, observed]) / steps[observed]
        pd_avg = pd.mean(axis=1).tolist() if ids else [math.nan] * len(cells)
        for i, row, avg, fa in zip(cells, pd.tolist(), pd_avg, (false_alarms / n_frames).tolist()):
            results[i] = MetricResult(dict(zip(ids, row)), avg, fa, excluded)
    return [results[i] for i in range(len(configs))]


def realization_metrics(
    scenario: Scenario,
    rz: Realization,
    static_map: StaticMap | None,
    configs: Sequence[FilterConfig],
) -> list[MetricResult]:
    """Pd/FA of one realization of ``scenario`` under each filter configuration.

    ``static_map`` is the mask's map; ``None`` means no map.
    """
    ids = [track.id for track in scenario.tracks]
    fd = detection_distances(rz.xy, rz.frame_of, rz.truth_xy, rz.truth_in, ids, static_map)
    return grid_metrics(fd, configs)
