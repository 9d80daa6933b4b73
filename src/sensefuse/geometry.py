"""Axis-aligned map geometry.

The static environment is a set of closed axis-aligned rectangles (buildings)
inside a rectangular sensing area.  The one non-trivial query is membership in
the map dilated by a disk of radius ``g``: for axis-aligned rectangles the
Minkowski sum with a disk is realized exactly by comparing the Euclidean
point-to-rectangle distance against ``g``, so no polygon construction is ever
needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Segment = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True, slots=True)
class WorldPoint:
    """A point in the world frame, meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"world point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class Rect:
    """Closed axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``, meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        finite = math.isfinite  # no generator: a store replay builds many rects
        if not (finite(vals[0]) and finite(vals[1]) and finite(vals[2]) and finite(vals[3])):
            raise ValueError(f"rect coordinates must be finite, got {vals}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"rect must satisfy x_min < x_max and y_min < y_max, got {vals}"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def intersects(self, other: Rect) -> bool:
        """True when the rectangles share positive area (edge contact does not count)."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )

    def intersection(self, other: Rect) -> Rect | None:
        """Overlap rectangle, or None when there is no positive-area overlap."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.x_min, other.x_min),
            max(self.y_min, other.y_min),
            min(self.x_max, other.x_max),
            min(self.y_max, other.y_max),
        )

    def edges(self) -> tuple[Segment, Segment, Segment, Segment]:
        """Boundary segments in counter-clockwise order starting at the bottom edge."""
        bl = (self.x_min, self.y_min)
        br = (self.x_max, self.y_min)
        tr = (self.x_max, self.y_max)
        tl = (self.x_min, self.y_max)
        return ((bl, br), (br, tr), (tr, tl), (tl, bl))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


def rect_distance_sq_many(xy: np.ndarray, rect: Rect) -> np.ndarray:
    """Squared Euclidean distance from (n, 2) points to a closed rectangle (0 inside).

    Outside, this is the squared distance to the nearest edge or corner; for
    example (13, 14) against [0, 10] x [0, 10] gives 3^2 + 4^2 = 25.
    """
    dx = np.maximum(np.maximum(rect.x_min - xy[:, 0], 0.0), xy[:, 0] - rect.x_max)
    dy = np.maximum(np.maximum(rect.y_min - xy[:, 1], 0.0), xy[:, 1] - rect.y_max)
    return dx * dx + dy * dy


@dataclass(frozen=True)
class StaticMap:
    """Static environment knowledge: building rectangles inside the sensing bounds."""

    rects: tuple[Rect, ...]
    bounds: Rect

    def __post_init__(self) -> None:
        object.__setattr__(self, "rects", tuple(self.rects))
        outside = [r for r in self.rects if not r.intersects(self.bounds)]
        if outside:
            raise ValueError(
                f"static map rects must intersect the bounds {self.bounds.as_tuple()}; "
                f"offending rects: {[r.as_tuple() for r in outside]}"
            )

    @property
    def empty(self) -> bool:
        return not self.rects

    def min_distance_sq_many(self, xy: np.ndarray) -> np.ndarray:
        """Squared distance to the nearest rect for (n, 2) coordinates; +inf for an empty map."""
        if not self.rects:
            return np.full(len(xy), np.inf)
        return np.minimum.reduce([rect_distance_sq_many(xy, r) for r in self.rects])

    def all_edges(self) -> list[Segment]:
        return [seg for r in self.rects for seg in r.edges()]


def subtract_rect(base: Rect, cut: Rect) -> list[Rect]:
    """Set difference ``base minus cut`` as a list of disjoint rectangles.

    Returns [base] when the two do not overlap and [] when cut covers base.
    Used for coverage accounting; zero-width slivers are dropped.
    """
    inter = base.intersection(cut)
    if inter is None:
        return [base]
    pieces: list[Rect] = []
    if base.x_min < inter.x_min:
        pieces.append(Rect(base.x_min, base.y_min, inter.x_min, base.y_max))
    if inter.x_max < base.x_max:
        pieces.append(Rect(inter.x_max, base.y_min, base.x_max, base.y_max))
    if base.y_min < inter.y_min:
        pieces.append(Rect(inter.x_min, base.y_min, inter.x_max, inter.y_min))
    if inter.y_max < base.y_max:
        pieces.append(Rect(inter.x_min, inter.y_max, inter.x_max, base.y_max))
    return pieces


def subtract_rects(base: Rect, cuts: list[Rect]) -> list[Rect]:
    """Subtract every rect in ``cuts`` from ``base``; [] means full coverage."""
    remaining = [base]
    for cut in cuts:
        remaining = [piece for r in remaining for piece in subtract_rect(r, cut)]
        if not remaining:
            return []
    return remaining
