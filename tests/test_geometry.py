import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensefuse.geometry import (
    Rect,
    StaticMap,
    WorldPoint,
    rect_distance_sq_many,
    subtract_rect,
    subtract_rects,
)

from oracles import (
    in_dilated_map,
    min_distance_sq,
    rect_contains,
    rect_distance,
    rect_distance_sq,
)

UNIT10 = Rect(0.0, 0.0, 10.0, 10.0)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


# -- Rect ---------------------------------------------------------------------


def test_rect_rejects_degenerate_extents():
    with pytest.raises(ValueError):
        Rect(10.0, 0.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, 10.0, math.nan)


def test_rect_contains_is_closed():
    assert rect_contains(UNIT10, WorldPoint(5.0, 5.0))
    assert rect_contains(UNIT10, WorldPoint(0.0, 0.0))
    assert rect_contains(UNIT10, WorldPoint(10.0, 10.0))
    assert not rect_contains(UNIT10, WorldPoint(10.000001, 5.0))


def test_rect_intersects_requires_positive_area():
    assert UNIT10.intersects(Rect(5.0, 5.0, 15.0, 15.0))
    # Sharing only an edge is not an intersection.
    assert not UNIT10.intersects(Rect(10.0, 0.0, 20.0, 10.0))
    assert not UNIT10.intersects(Rect(11.0, 0.0, 20.0, 10.0))


def test_rect_intersection_known_overlap():
    inter = UNIT10.intersection(Rect(5.0, -5.0, 15.0, 5.0))
    assert inter == Rect(5.0, 0.0, 10.0, 5.0)
    assert UNIT10.intersection(Rect(10.0, 0.0, 20.0, 10.0)) is None


def test_rect_dimensions():
    r = Rect(1.0, 2.0, 4.0, 10.0)
    assert r.width == 3.0
    assert r.height == 8.0
    assert r.area == 24.0


# -- point-to-rectangle distance ----------------------------------------------


def test_rect_distance_hand_values():
    assert rect_distance(WorldPoint(5.0, 5.0), UNIT10) == 0.0  # interior
    assert rect_distance(WorldPoint(12.0, 5.0), UNIT10) == 2.0  # axis offset
    assert rect_distance(WorldPoint(13.0, 14.0), UNIT10) == 5.0  # 3-4-5 corner
    assert rect_distance(WorldPoint(0.0, 0.0), UNIT10) == 0.0  # boundary
    assert rect_distance(WorldPoint(-3.0, 5.0), UNIT10) == 3.0


def test_rect_distance_many_matches_scalar_exactly(rng):
    xy = rng.uniform(-30.0, 30.0, size=(500, 2))
    batch = rect_distance_sq_many(xy, UNIT10)
    for i, (x, y) in enumerate(xy):
        assert batch[i] == rect_distance_sq(WorldPoint(float(x), float(y)), UNIT10)


@given(px=coords, py=coords, qx=coords, qy=coords)
@settings(max_examples=200, deadline=None)
def test_rect_distance_is_1_lipschitz(px, py, qx, qy):
    dp = rect_distance(WorldPoint(px, py), UNIT10)
    dq = rect_distance(WorldPoint(qx, qy), UNIT10)
    gap = math.sqrt((px - qx) ** 2 + (py - qy) ** 2)
    assert dp >= 0.0
    assert abs(dp - dq) <= gap + 1e-9 * max(1.0, gap)


def test_rect_distance_matches_clip_projection_oracle(rng):
    # Independent formulation: distance to the point's clamp onto the rect.
    xy = rng.uniform(-40.0, 40.0, size=(300, 2))
    for x, y in xy:
        cx = min(max(x, UNIT10.x_min), UNIT10.x_max)
        cy = min(max(y, UNIT10.y_min), UNIT10.y_max)
        expected = math.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        assert rect_distance(WorldPoint(float(x), float(y)), UNIT10) == pytest.approx(
            expected, abs=1e-12
        )


# -- StaticMap ----------------------------------------------------------------


def test_static_map_rejects_rects_outside_bounds():
    bounds = Rect(0.0, 0.0, 100.0, 100.0)
    with pytest.raises(ValueError, match="200"):
        StaticMap((Rect(200.0, 200.0, 210.0, 210.0),), bounds)


def test_static_map_empty_behaviour():
    m = StaticMap((), Rect(0.0, 0.0, 100.0, 100.0))
    assert m.empty
    assert min_distance_sq(m, WorldPoint(5.0, 5.0)) == math.inf
    assert not in_dilated_map(WorldPoint(5.0, 5.0), m, 1000.0)


def test_static_map_min_distance_over_rects(rng):
    rects = (Rect(0.0, 0.0, 10.0, 10.0), Rect(30.0, 30.0, 40.0, 45.0))
    m = StaticMap(rects, Rect(-10.0, -10.0, 60.0, 60.0))
    xy = rng.uniform(-10.0, 60.0, size=(400, 2))
    batch = m.min_distance_sq_many(xy)
    for i, (x, y) in enumerate(xy):
        p = WorldPoint(float(x), float(y))
        expected = min(rect_distance_sq(p, r) for r in rects)
        assert min_distance_sq(m, p) == expected
        assert batch[i] == expected


# -- dilated membership -------------------------------------------------------


def test_in_dilated_map_spec_points(unit_map):
    assert in_dilated_map(WorldPoint(5.0, 5.0), unit_map, 0.0)  # inside
    assert not in_dilated_map(WorldPoint(11.0, 5.0), unit_map, 0.5)  # distance 1
    assert in_dilated_map(WorldPoint(11.0, 5.0), unit_map, 2.0)


def test_in_dilated_map_boundary_tie_counts_inside(unit_map):
    # Distance is exactly 3 (representable), so g=3 is a tie.
    assert in_dilated_map(WorldPoint(13.0, 5.0), unit_map, 3.0)
    assert not in_dilated_map(WorldPoint(13.0, 5.0), unit_map, 2.999)


def test_in_dilated_map_rejects_bad_margin(unit_map):
    with pytest.raises(ValueError):
        in_dilated_map(WorldPoint(0.0, 0.0), unit_map, -0.1)
    with pytest.raises(ValueError):
        in_dilated_map(WorldPoint(0.0, 0.0), unit_map, math.nan)


def test_in_dilated_map_monotone_in_margin(unit_map, rng):
    pts = rng.uniform(-20.0, 30.0, size=(200, 2))
    for x, y in pts:
        p = WorldPoint(float(x), float(y))
        inside = [in_dilated_map(p, unit_map, g) for g in (0.0, 1.0, 2.0, 5.0, 10.0)]
        # Once inside at some margin, inside at every larger margin.
        for smaller, larger in zip(inside, inside[1:]):
            assert (not smaller) or larger


def test_in_dilated_map_equals_euclidean_disk(unit_map, rng):
    # Membership in the Minkowski sum with a closed disk of radius g is
    # exactly distance <= g.
    pts = rng.uniform(-20.0, 30.0, size=(300, 2))
    for g in (0.5, 2.0, 7.0):
        for x, y in pts:
            p = WorldPoint(float(x), float(y))
            assert in_dilated_map(p, unit_map, g) == (
                rect_distance(p, UNIT10) <= g
            )


# -- rectangle subtraction ----------------------------------------------------


def _assert_partition(base: Rect, cut: Rect, pieces: list[Rect], rng):
    inter = base.intersection(cut)
    cut_area = inter.area if inter is not None else 0.0
    assert sum(p.area for p in pieces) == pytest.approx(base.area - cut_area, rel=1e-12)
    for i, a in enumerate(pieces):
        assert base.intersection(a) == a  # pieces lie within base
        for b in pieces[i + 1 :]:
            assert not a.intersects(b)
    # Random interior points: in exactly one piece iff not in the cut.
    xs = rng.uniform(base.x_min, base.x_max, 300)
    ys = rng.uniform(base.y_min, base.y_max, 300)
    for x, y in zip(xs, ys):
        p = WorldPoint(float(x), float(y))
        hits = sum(rect_contains(piece, p) for piece in pieces)
        if rect_contains(cut, p):
            assert hits == 0 or rect_distance(p, cut) == 0.0
        else:
            assert hits >= 1


def test_subtract_rect_partitions_area(rng):
    base = Rect(0.0, 0.0, 10.0, 10.0)
    for cut in (
        Rect(2.0, 2.0, 5.0, 6.0),  # strictly interior
        Rect(-5.0, -5.0, 5.0, 5.0),  # corner overlap
        Rect(-5.0, 4.0, 15.0, 6.0),  # horizontal band through
        Rect(20.0, 20.0, 30.0, 30.0),  # disjoint
    ):
        _assert_partition(base, cut, subtract_rect(base, cut), rng)


def test_subtract_rect_full_cover_returns_nothing():
    assert subtract_rect(UNIT10, Rect(-1.0, -1.0, 11.0, 11.0)) == []
    assert subtract_rect(UNIT10, UNIT10) == []


def test_subtract_rects_no_cuts_returns_base():
    assert subtract_rects(UNIT10, []) == [UNIT10]


def test_subtract_rects_joint_cover(rng):
    base = Rect(0.0, 0.0, 10.0, 10.0)
    cuts = [Rect(-1.0, -1.0, 6.0, 11.0), Rect(5.0, -1.0, 11.0, 11.0)]
    assert subtract_rects(base, cuts) == []

    cuts = [Rect(0.0, 0.0, 6.0, 10.0), Rect(5.0, 0.0, 10.0, 9.0)]
    remaining = subtract_rects(base, cuts)
    # Uncovered region is [6,10] x [9,10], area 4.
    assert sum(r.area for r in remaining) == pytest.approx(4.0, rel=1e-12)
    xs = rng.uniform(0.0, 10.0, 400)
    ys = rng.uniform(0.0, 10.0, 400)
    for x, y in zip(xs, ys):
        p = WorldPoint(float(x), float(y))
        in_remaining = any(rect_contains(r, p) for r in remaining)
        uncovered = x > 6.0 and y > 9.0
        if 0.0 < x < 10.0 and 0.0 < y < 10.0 and x != 6.0 and y != 9.0:
            assert in_remaining == uncovered
