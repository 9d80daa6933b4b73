import math

import numpy as np
import pytest

from sensefuse.errors import DegenerateGeometryError
from sensefuse.geometry import WorldPoint
from sensefuse.measurement import (
    PSD_SLACK,
    Cov2,
    DetectionColumns,
    NoiseModel,
    Pose,
    WorldDetection,
    wrap_angle,
    wrap_angles,
)

from oracles import (
    PolarMeasurement,
    build_detection,
    cov_matrix,
    polar_to_world,
    rotated_covariance,
    sample_measurement,
    sample_measurements,
    world_covariance,
    world_to_polar,
)

SIGMA_R = 0.8
SIGMA_B = math.radians(2.0)
NOISE = NoiseModel(SIGMA_R, SIGMA_B)


def jacobian(z: PolarMeasurement) -> np.ndarray:
    """Jacobian of the polar-to-local-Cartesian map at the measurement point.

    Equals R(bearing) @ diag(1, range), so its determinant is the range.
    """
    c = math.cos(z.bearing)
    s = math.sin(z.bearing)
    return np.array([[c, -z.range_m * s], [s, z.range_m * c]])


def _numpy_propagated(range_m: float, angle: float, noise: NoiseModel) -> np.ndarray:
    """Independent oracle: J @ diag(sigma_r^2, sigma_b^2) @ J.T with numpy."""
    j = jacobian(PolarMeasurement(range_m, angle))
    return j @ np.diag([noise.sigma_range**2, noise.sigma_bearing**2]) @ j.T


# -- angles and value types ----------------------------------------------------


def test_wrap_angle_cases():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # range is (-pi, pi]
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)


def test_wrap_angles_matches_scalar(rng):
    angles = rng.uniform(-20.0, 20.0, 200)
    batch = wrap_angles(angles)
    for a, b in zip(angles, batch):
        assert b == pytest.approx(wrap_angle(float(a)), abs=1e-12)


def test_pose_normalizes_theta():
    assert Pose(0.0, 0.0, 2 * math.pi + 0.3).theta == pytest.approx(0.3)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(0.0, 0.1)
    with pytest.raises(ValueError):
        NoiseModel(0.8, -0.1)
    with pytest.raises(ValueError):
        NoiseModel(math.inf, 0.1)


def test_polar_measurement_requires_positive_range():
    with pytest.raises(ValueError):
        PolarMeasurement(0.0, 0.0)
    with pytest.raises(ValueError):
        PolarMeasurement(-1.0, 0.0)


def test_cov2_eigenvalues_match_numpy(rng):
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        m = a @ a.T + 1e-6 * np.eye(2)
        cov = Cov2(m[0, 0], m[0, 1], m[1, 1])
        lo, hi = cov.eigenvalues()
        ref = np.linalg.eigvalsh(m)
        assert lo == pytest.approx(ref[0], rel=1e-9, abs=1e-12)
        assert hi == pytest.approx(ref[1], rel=1e-9, abs=1e-12)


def test_cov2_rejects_indefinite_and_asymmetric():
    # Cov2 holds one off-diagonal entry, so it is symmetric by construction.
    with pytest.raises(ValueError):
        Cov2(1.0, 2.0, 1.0)  # det < 0


# -- polar <-> world -----------------------------------------------------------


def test_polar_to_world_spec_points():
    assert polar_to_world(Pose(0, 0, 0), PolarMeasurement(10.0, 0.0)) == WorldPoint(10.0, 0.0)
    p = polar_to_world(Pose(120, 0, 0), PolarMeasurement(10.0, math.pi / 2))
    assert (p.x, p.y) == pytest.approx((120.0, 10.0), abs=1e-12)
    p = polar_to_world(Pose(0, 0, math.pi / 2), PolarMeasurement(5.0, 0.0))
    assert (p.x, p.y) == pytest.approx((0.0, 5.0), abs=1e-12)


def test_world_to_polar_spec_points():
    z = world_to_polar(Pose(0, 0, 0), WorldPoint(10.0, 0.0))
    assert (z.range_m, z.bearing) == pytest.approx((10.0, 0.0), abs=1e-12)
    z = world_to_polar(Pose(0, 0, 0), WorldPoint(0.0, 7.0))
    assert (z.range_m, z.bearing) == pytest.approx((7.0, math.pi / 2), abs=1e-12)
    z = world_to_polar(Pose(0, 0, math.pi / 2), WorldPoint(0.0, 5.0))
    assert (z.range_m, z.bearing) == pytest.approx((5.0, 0.0), abs=1e-12)


def test_round_trip_random_geometry(rng):
    for _ in range(300):
        pose = Pose(*rng.uniform(-50, 50, 2), rng.uniform(-math.pi, math.pi))
        p = WorldPoint(*rng.uniform(-200, 200, 2))
        if p.x == pose.x and p.y == pose.y:
            continue
        z = world_to_polar(pose, p)
        back = polar_to_world(pose, z)
        assert back.x == pytest.approx(p.x, abs=1e-9)
        assert back.y == pytest.approx(p.y, abs=1e-9)


def test_world_to_polar_degenerate_at_origin():
    with pytest.raises(DegenerateGeometryError):
        world_to_polar(Pose(3.0, 4.0, 0.2), WorldPoint(3.0, 4.0))


# -- sampling -------------------------------------------------------------------


def test_sample_zero_noise_limit(rng):
    tiny = NoiseModel(1e-12, 1e-12)
    pose = Pose(2.0, -1.0, 0.4)
    target = WorldPoint(30.0, 25.0)
    z_true = world_to_polar(pose, target)
    z = sample_measurement(pose, target, tiny, rng)
    assert z.range_m == pytest.approx(z_true.range_m, abs=1e-9)
    assert z.bearing == pytest.approx(z_true.bearing, abs=1e-9)


def test_sample_mean_range_matches_target(rng):
    pose = Pose(0.0, 0.0, 0.0)
    target = WorldPoint(50.0, 0.0)
    n = 100_000
    ranges = np.array(
        [sample_measurement(pose, target, NOISE, rng).range_m for _ in range(n)]
    )
    # SE of the mean is 0.8/sqrt(1e5) ~ 0.0025; 0.01 is a 4-sigma band.
    assert ranges.mean() == pytest.approx(50.0, abs=0.01)
    bearings = np.array(
        [sample_measurement(pose, target, NOISE, rng).bearing for _ in range(20_000)]
    )
    assert bearings.var() == pytest.approx(SIGMA_B**2, rel=0.05)


def test_sample_redraws_nonpositive_ranges(rng):
    # Range 0.5 with sigma_r 5: naive draws would often be <= 0.
    noise = NoiseModel(5.0, 0.01)
    pose = Pose(0.0, 0.0, 0.0)
    target = WorldPoint(0.5, 0.0)
    for _ in range(500):
        assert sample_measurement(pose, target, noise, rng).range_m > 0.0


def test_sample_measurements_batch_distribution(rng):
    pose = Pose(0.0, 0.0, 0.0)
    pts = np.tile([50.0, 0.0], (50_000, 1))
    ranges, bearings = sample_measurements(pose, pts, NOISE, rng)
    assert ranges.mean() == pytest.approx(50.0, abs=0.015)
    assert ranges.std() == pytest.approx(SIGMA_R, rel=0.05)
    assert bearings.std() == pytest.approx(SIGMA_B, rel=0.05)


# -- covariance propagation ------------------------------------------------------


def test_jacobian_spec_values():
    j = jacobian(PolarMeasurement(10.0, 0.0))
    assert np.allclose(j, [[1.0, 0.0], [0.0, 10.0]])
    j = jacobian(PolarMeasurement(1.0, math.pi / 2))
    assert np.allclose(j, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_jacobian_determinant_is_range(rng):
    for _ in range(50):
        r = float(rng.uniform(0.1, 200.0))
        b = float(rng.uniform(-math.pi, math.pi))
        assert np.linalg.det(jacobian(PolarMeasurement(r, b))) == pytest.approx(r, rel=1e-12)


def test_propagate_covariance_boresight_example():
    cov = rotated_covariance(10.0, 0.0, NOISE)
    assert cov.xx == pytest.approx(SIGMA_R**2, rel=1e-12)  # 0.64
    assert cov.xy == pytest.approx(0.0, abs=1e-15)
    assert cov.yy == pytest.approx((10.0 * SIGMA_B) ** 2, rel=1e-12)  # ~0.1218


def test_propagate_covariance_matches_numpy_oracle(rng):
    for _ in range(200):
        r = float(rng.uniform(0.5, 200.0))
        b = float(rng.uniform(-math.pi, math.pi))
        noise = NoiseModel(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.001, 0.2)))
        cov = rotated_covariance(r, b, noise)
        expected = _numpy_propagated(r, b, noise)
        assert cov.xx == pytest.approx(expected[0, 0], rel=1e-9, abs=1e-12)
        assert cov.xy == pytest.approx(expected[0, 1], rel=1e-9, abs=1e-12)
        assert cov.yy == pytest.approx(expected[1, 1], rel=1e-9, abs=1e-12)


def test_propagate_covariance_eigenvalues(rng):
    for _ in range(100):
        r = float(rng.uniform(0.5, 200.0))
        b = float(rng.uniform(-math.pi, math.pi))
        lo, hi = rotated_covariance(r, b, NOISE).eigenvalues()
        expected = sorted([SIGMA_R**2, (r * SIGMA_B) ** 2])
        assert lo == pytest.approx(expected[0], rel=1e-9)
        assert hi == pytest.approx(expected[1], rel=1e-9)
        # Determinant is preserved under the rotation: r^2 sigma_r^2 sigma_b^2.
        assert lo * hi == pytest.approx((r * SIGMA_R * SIGMA_B) ** 2, rel=1e-9)


def test_lateral_std_grows_linearly_with_range():
    lo, hi = rotated_covariance(50.0, 0.3, NOISE).eigenvalues()
    assert math.sqrt(hi) == pytest.approx(50.0 * SIGMA_B, rel=1e-9)


def test_world_covariance_matches_numpy_oracle(rng):
    for _ in range(100):
        pose = Pose(*rng.uniform(-50, 50, 2), float(rng.uniform(-math.pi, math.pi)))
        r = float(rng.uniform(0.5, 150.0))
        b = float(rng.uniform(-math.pi, math.pi))
        cov = world_covariance(pose, PolarMeasurement(r, b), NOISE)
        expected = _numpy_propagated(r, pose.theta + b, NOISE)
        assert cov.xx == pytest.approx(expected[0, 0], rel=1e-9, abs=1e-12)
        assert cov.xy == pytest.approx(expected[0, 1], rel=1e-9, abs=1e-12)
        assert cov.yy == pytest.approx(expected[1, 1], rel=1e-9, abs=1e-12)


def test_world_covariance_monte_carlo(rng):
    # Sampled back-projections around the linearization point reproduce the
    # propagated covariance to within the linearization error.
    pose = Pose(3.0, -2.0, 0.7)
    r, b = 40.0, 0.5
    n = 50_000
    rr = r + SIGMA_R * rng.standard_normal(n)
    bb = b + SIGMA_B * rng.standard_normal(n)
    xs = pose.x + rr * np.cos(pose.theta + bb)
    ys = pose.y + rr * np.sin(pose.theta + bb)
    emp = np.cov(np.vstack([xs, ys]))
    cov = cov_matrix(world_covariance(pose, PolarMeasurement(r, b), NOISE))
    rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert rel < 0.05


def test_build_detection_back_projects_the_measurement():
    pose = Pose(10.0, 20.0, 0.3)
    z = PolarMeasurement(25.0, -0.4, source_se="se-1")
    det = build_detection(pose, z, NOISE)
    expected = polar_to_world(pose, z)
    assert det.point == expected
    assert det.source_se == "se-1"
    assert not det.is_clutter_truth
    assert det.cov == world_covariance(pose, z, NOISE)


# -- detection columns -------------------------------------------------------------


def columns(**overrides) -> DetectionColumns:
    fields = dict(
        xy=[[1.0, 2.0], [3.0, -4.0], [0.5, 0.25]],
        cov=[[1.0, 0.0, 1.0], [2.0, 0.5, 1.0], [0.64, -0.1, 0.3]],
        se_idx=[1, 0, 1],
        se_ids=("se-0", "se-1"),
        is_clutter=[False, True, False],
    )
    fields.update(overrides)
    return DetectionColumns(**fields)


def test_detection_columns_detections_view():
    cols = columns()
    assert len(cols) == 3
    assert cols.sources() == ["se-1", "se-0", "se-1"]
    assert cols.detections()[1] == WorldDetection(
        WorldPoint(3.0, -4.0), Cov2(2.0, 0.5, 1.0), "se-0", True
    )
    assert not cols.xy.flags.writeable and not cols.cov.flags.writeable


def test_detection_columns_equality_is_by_rows():
    # Same rows under another se_ids order are the same detections.
    assert columns() == columns(se_idx=[0, 1, 0], se_ids=("se-1", "se-0"))
    assert columns() != columns(is_clutter=[False, False, False])
    assert columns() != columns(cov=[[1.0, 0.0, 1.0], [2.0, 0.5, 1.0], [0.64, -0.1, 0.31]])


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"xy": [[1.0, 2.0], [3.0, 4.0]]}, "cov must have shape"),
        ({"xy": [1.0, 2.0, 3.0]}, "xy must have shape"),
        ({"cov": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}, "cov must have shape"),
        ({"xy": [[1.0, 2.0], [math.inf, 0.0], [0.5, 0.25]]}, "xy must be finite.*row 1"),
        ({"cov": [[1.0, 0.0, 1.0], [math.nan, 0.0, 1.0], [1.0, 0.0, 1.0]]}, "finite.*row 1"),
        ({"cov": [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 2.0, 1.0]]}, "semidefinite.*row 2"),
        ({"se_idx": [0, 2, 1]}, "se_idx must index"),
        ({"se_idx": [0.0, 1.0, 1.0]}, "se_idx must be"),
        ({"is_clutter": [0, 1, 0]}, "is_clutter must be"),
        ({"se_ids": ("se-0", 1)}, "se_ids must be strings"),
    ],
)
def test_detection_columns_validation(overrides, match):
    with pytest.raises(ValueError, match=match):
        columns(**overrides)


def test_detection_columns_psd_slack_matches_cov2():
    # Smallest eigenvalue 1 - xy: just inside, then outside, the slack.
    inside = [1.0, 1.0 + PSD_SLACK / 2, 1.0]
    outside = [1.0, 1.0 + 4 * PSD_SLACK, 1.0]
    Cov2(*inside)
    assert len(columns(cov=[inside] * 3)) == 3
    with pytest.raises(ValueError, match="semidefinite"):
        Cov2(*outside)
    with pytest.raises(ValueError, match="semidefinite"):
        columns(cov=[inside, inside, outside])
