"""Range-bearing measurement model.

A sensing entity (SE) at a known pose observes a world point as a range and a
bearing corrupted by independent zero-mean Gaussian noise.  Back-projection to
the world frame and a first-order (Jacobian) propagation of the polar noise
covariance give each detection a position uncertainty ellipse whose principal
axes are the radial and cross-range directions.

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

from .errors import DegenerateGeometryError
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
class PolarMeasurement:
    """One range-bearing observation, tagged with the SE that produced it."""

    range_m: float
    bearing: float
    source_se: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.range_m) and self.range_m > 0.0):
            raise ValueError(f"range must be finite and > 0, got {self.range_m}")
        object.__setattr__(self, "bearing", wrap_angle(self.bearing))


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

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.xx, self.xy], [self.xy, self.yy]])

    @classmethod
    def from_matrix(cls, m: np.ndarray, *, sym_tol: float = 1e-9) -> Cov2:
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if abs(m[0, 1] - m[1, 0]) > sym_tol:
            raise ValueError(f"matrix is not symmetric within {sym_tol}: {m.tolist()}")
        return cls(float(m[0, 0]), float(0.5 * (m[0, 1] + m[1, 0])), float(m[1, 1]))


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


def rotated_covariance(range_m: float, angle: float, noise: NoiseModel) -> Cov2:
    """The polar noise ellipse diag(sigma_r^2, (r*sigma_b)^2) rotated by ``angle``."""
    a = noise.sigma_range * noise.sigma_range
    rb = range_m * noise.sigma_bearing
    b = rb * rb
    c = math.cos(angle)
    s = math.sin(angle)
    return Cov2(a * c * c + b * s * s, (a - b) * c * s, a * s * s + b * c * c)


def propagate_covariance(z: PolarMeasurement, noise: NoiseModel) -> Cov2:
    """First-order propagation of the polar noise into the SE-local frame.

    Closed form of J @ diag(sigma_r^2, sigma_b^2) @ J.T with J the Jacobian
    of the polar-to-Cartesian map, R(bearing) @ diag(1, range); the
    eigenvalues are exactly sigma_r^2 and (r * sigma_b)^2 regardless of
    bearing.
    """
    return rotated_covariance(z.range_m, z.bearing, noise)


def world_covariance(pose: Pose, z: PolarMeasurement, noise: NoiseModel) -> Cov2:
    """Propagated covariance expressed in the world frame.

    The local ellipse rides with the line of sight, so the world-frame matrix
    is the same ellipse rotated by (pose heading + bearing).
    """
    return rotated_covariance(z.range_m, pose.theta + z.bearing, noise)


def build_detection(
    pose: Pose,
    z: PolarMeasurement,
    noise: NoiseModel,
    *,
    is_clutter_truth: bool = False,
) -> WorldDetection:
    """Assemble a world-frame detection from a polar measurement."""
    return WorldDetection(
        point=polar_to_world(pose, z),
        cov=world_covariance(pose, z, noise),
        source_se=z.source_se,
        is_clutter_truth=is_clutter_truth,
    )
