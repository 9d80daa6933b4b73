"""Range-bearing measurement model.

A sensing entity (SE) at a known pose observes a world point as a range and a
bearing corrupted by independent zero-mean Gaussian noise.  Back-projection to
the world frame and a first-order (Jacobian) propagation of the polar noise
covariance give each detection a position uncertainty ellipse whose principal
axes are the radial and cross-range directions.  The generator in
:mod:`sensefuse.scenario` does that math on its own rows; this module holds
the types it is stated in.  The one-point-at-a-time forms of the formulas
(polar measurement, back-projection, covariance) are test oracles in
``tests/oracles.py``.

A batch of world-frame detections travels as :class:`DetectionColumns`:
one array per field, with covariances as ``(xx, xy, yy)`` rows validated in
vectorized form by the same closed-form eigenvalue test as :class:`Cov2`.
That is the form the SDSF archives; :meth:`DetectionColumns.detections`
gives the per-detection object view.

Conventions:
  * bearings are radians in (-pi, pi], measured in the SE's local frame;
  * the polar-to-world Jacobian at range r and bearing b factors as
    R(b) @ diag(1, r), so the propagated covariance has eigenvalues
    sigma_range^2 (radial) and (r * sigma_bearing)^2 (cross-range), and the
    world-frame ellipse is the same ellipse rotated by (pose heading + b).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import WorldPoint

TWO_PI = 2.0 * math.pi

# Eigenvalue slack accepted when validating positive semidefiniteness.
PSD_SLACK = 1e-12


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


@dataclass(frozen=True, slots=True)
class Cov2:
    """Symmetric 2x2 covariance stored as its three independent entries.

    Construction validates positive semidefiniteness up to a small slack so
    round-off in propagated covariances is tolerated but genuinely indefinite
    matrices are rejected.
    """

    xx: float
    xy: float
    yy: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.xx, self.xy, self.yy)):
            raise ValueError(f"covariance entries must be finite, got {(self.xx, self.xy, self.yy)}")
        if min(self.eigenvalues()) < -PSD_SLACK:
            raise ValueError(
                f"covariance must be positive semidefinite, got entries {(self.xx, self.xy, self.yy)}"
            )

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues in ascending order (closed form for the symmetric 2x2 case)."""
        mean = 0.5 * (self.xx + self.yy)
        half_diff = 0.5 * (self.xx - self.yy)
        radius = math.sqrt(half_diff * half_diff + self.xy * self.xy)
        return (mean - radius, mean + radius)


@dataclass(frozen=True, slots=True)
class WorldDetection:
    """A detection back-projected into the world frame.

    ``is_clutter_truth`` records the generator's ground truth about the
    detection's origin.  It exists only so evaluation code can audit the
    simulation; the fusion pipeline never reads it.
    """

    point: WorldPoint
    cov: Cov2
    source_se: str
    is_clutter_truth: bool = False


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """World-frame detections as columns: one row per detection.

    ``cov`` rows hold a covariance's ``(xx, xy, yy)`` entries and ``se_idx``
    indexes ``se_ids``.  Construction checks shapes, finiteness and positive
    semidefiniteness of every row, as :class:`Cov2` does for one, and stores
    read-only float/int/bool copies.  Two batches are equal when their rows
    are: same positions, covariances, source SE ids and clutter flags.
    """

    xy: np.ndarray  # (D, 2)
    cov: np.ndarray  # (D, 3) xx, xy, yy
    se_idx: np.ndarray  # (D,)
    se_ids: tuple[str, ...]
    is_clutter: np.ndarray  # (D,) bool

    def __post_init__(self) -> None:
        xy = np.array(self.xy, dtype=float)
        cov = np.array(self.cov, dtype=float)
        se_idx = np.array(self.se_idx)
        is_clutter = np.array(self.is_clutter)
        n = len(xy)
        if xy.shape != (n, 2):
            raise ValueError(f"xy must have shape (D, 2), got {xy.shape}")
        if cov.shape != (n, 3):
            raise ValueError(f"cov must have shape ({n}, 3), got {cov.shape}")
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
        _check_rows("xy", xy, np.isfinite(xy).all(axis=1), "finite")
        _check_rows("covariance", cov, np.isfinite(cov).all(axis=1), "finite")
        # Cov2.eigenvalues in closed form; numpy's + - * sqrt round as math's do.
        xx, xy_, yy = cov.T
        mean = 0.5 * (xx + yy)
        half_diff = 0.5 * (xx - yy)
        radius = np.sqrt(half_diff * half_diff + xy_ * xy_)
        _check_rows("covariance", cov, mean - radius >= -PSD_SLACK, "positive semidefinite")
        object.__setattr__(self, "xy", _frozen(xy))
        object.__setattr__(self, "cov", _frozen(cov))
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
            and np.array_equal(self.cov, other.cov)
            and np.array_equal(self.is_clutter, other.is_clutter)
            and self.sources() == other.sources()
        )

    def sources(self) -> list[str]:
        """Each row's source SE id."""
        return [self.se_ids[s] for s in self.se_idx.tolist()]

    def detections(self) -> list[WorldDetection]:
        """The rows as :class:`WorldDetection` objects, in row order."""
        return [
            WorldDetection(WorldPoint(x, y), Cov2(*cov), source, is_clutter)
            for (x, y), cov, source, is_clutter in zip(
                self.xy.tolist(), self.cov.tolist(), self.sources(), self.is_clutter.tolist()
            )
        ]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_rows(name: str, values: np.ndarray, ok: np.ndarray, what: str) -> None:
    if not ok.all():
        row = int(np.argmin(ok))
        raise ValueError(f"{name} must be {what}, got {values[row].tolist()} at row {row}")
