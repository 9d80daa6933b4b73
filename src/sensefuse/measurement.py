"""Range-bearing measurement model.

A sensing entity (SE) at a known pose observes a world point as a range and a
bearing corrupted by independent zero-mean Gaussian noise, and the detection
is that measurement back-projected to the world frame.  The generator in
:mod:`sensefuse.scenario` does that math on its own rows; this module holds
the types it is stated in.  The one-point-at-a-time forms of the formulas
(polar measurement, back-projection, and the first-order covariance a
detection would carry) are test oracles in ``tests/oracles.py``.

World-frame detections exist only as :class:`DetectionColumns`: one array
per field.  Fusion reads positions only (a distance to the map and a
Euclidean gate), so no covariance is carried.  The SDSF's raw records hold
this form.

Bearings are radians in (-pi, pi], measured in the SE's local frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    r = angle % TWO_PI  # in [0, 2*pi)
    return r - TWO_PI if r > math.pi else r


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    r = np.mod(angles, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, r)


@dataclass(frozen=True, slots=True)
class Pose:
    """SE placement in the world frame: position in meters, heading in radians.

    The heading is normalized to (-pi, pi] on construction.
    """

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.theta)):
            raise ValueError(f"pose fields must be finite, got ({self.x}, {self.y}, {self.theta})")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Standard deviations of the polar measurement noise (meters, radians)."""

    sigma_range: float
    sigma_bearing: float

    def __post_init__(self) -> None:
        for name, v in (("sigma_range", self.sigma_range), ("sigma_bearing", self.sigma_bearing)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """World-frame detections as columns: one row per detection.

    ``se_idx`` indexes ``se_ids``.  Construction checks shapes and the
    finiteness of every position, and stores read-only C-order float/int/bool copies.
    Two batches are equal when their rows are: same positions, source SE ids
    and clutter flags.
    """

    xy: np.ndarray  # (D, 2)
    se_idx: np.ndarray  # (D,)
    se_ids: tuple[str, ...]
    is_clutter: np.ndarray  # (D,) bool

    def __post_init__(self) -> None:
        xy = np.array(self.xy, dtype=float, order="C")
        se_idx = np.array(self.se_idx)
        is_clutter = np.array(self.is_clutter)
        n = len(xy)
        if xy.shape != (n, 2):
            raise ValueError(f"xy must have shape (D, 2), got {xy.shape}")
        # An empty column carries no dtype worth checking (np.array([]) is float).
        if se_idx.shape != (n,) or (n and se_idx.dtype.kind not in "iu"):
            raise ValueError(f"se_idx must be ({n},) integers, got {se_idx.shape} {se_idx.dtype}")
        if is_clutter.shape != (n,) or (n and is_clutter.dtype != bool):
            raise ValueError(
                f"is_clutter must be ({n},) booleans, got {is_clutter.shape} {is_clutter.dtype}"
            )
        if not all(isinstance(s, str) for s in self.se_ids):
            raise ValueError(f"se_ids must be strings, got {self.se_ids}")
        if n and not (se_idx.min() >= 0 and se_idx.max() < len(self.se_ids)):
            raise ValueError(f"se_idx must index the {len(self.se_ids)} se_ids")
        finite = np.isfinite(xy).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"xy must be finite, got {xy[row].tolist()} at row {row}")
        object.__setattr__(self, "xy", _frozen(xy))
        object.__setattr__(self, "se_idx", _frozen(se_idx.astype(np.intp, copy=False)))
        object.__setattr__(self, "se_ids", tuple(self.se_ids))
        object.__setattr__(self, "is_clutter", _frozen(is_clutter.astype(bool, copy=False)))

    def __len__(self) -> int:
        return len(self.xy)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionColumns):
            return NotImplemented
        return (
            len(self) == len(other)
            and np.array_equal(self.xy, other.xy)
            and np.array_equal(self.is_clutter, other.is_clutter)
            and self.sources() == other.sources()
        )

    def sources(self) -> list[str]:
        """Each row's source SE id."""
        return [self.se_ids[s] for s in self.se_idx.tolist()]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a

