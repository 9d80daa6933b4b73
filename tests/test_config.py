import math
import re
import sys
from pathlib import Path

import pytest

from sensefuse.config import (
    DEFAULT_G_DET_VALUES,
    KEYS,
    ROWS_PER_REALIZATION_MAX,
    SWEEP_VALUES_MAX,
    WORLD_SCALE_MAX,
    default_g_values,
    load_config,
    parse_config,
)
from sensefuse.errors import ConfigError
from sensefuse.geometry import Rect
from sensefuse.scenario import DEFAULT_BOUNDS, DEFAULT_BUILDINGS, POISSON_LAM_MAX


# -- defaults ---------------------------------------------------------------------


def test_empty_config_is_complete():
    cfg = parse_config({})
    assert cfg.scenario.bounds == DEFAULT_BOUNDS
    assert cfg.scenario.static_map.rects == DEFAULT_BUILDINGS
    assert cfg.scenario.noise.sigma_range == 0.8
    assert cfg.scenario.noise.sigma_bearing == pytest.approx(math.radians(2.0))
    assert cfg.scenario.p_det == 0.95
    assert cfg.scenario.n_targets == 8
    assert cfg.scenario.clutter.lambda_fa == 60.0
    assert cfg.scenario.clutter.edge_fraction == 0.7
    assert cfg.scenario.t_steps == 100
    assert cfg.scenario.seed == 7
    assert cfg.sweep.g_det_values == DEFAULT_G_DET_VALUES
    assert cfg.sweep.n_realizations == 50
    assert cfg.sweep.include_baseline is True
    assert cfg.demo.pd_min == 0.75
    assert cfg.demo.fa_max == 50.0
    assert cfg.demo.mask_margin_g == 2.0
    assert cfg.demo.gate_g_det == 3.0


def test_load_config_none_and_empty_file(tmp_path):
    assert load_config(None) == parse_config({})
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(empty) == parse_config({})


def test_default_g_grid_is_quarter_steps():
    values = default_g_values()
    assert len(values) == 21
    assert values[0] == 0.0 and values[-1] == 5.0
    assert values[1] == 0.25
    steps = {round(b - a, 12) for a, b in zip(values, values[1:])}
    assert steps == {0.25}


def test_default_g_grid_inclusive_of_uneven_end():
    assert default_g_values(0.0, 1.0, 0.3) == (0.0, 0.3, 0.6, 0.9)
    assert default_g_values(1.0, 1.0, 0.5) == (1.0,)


# -- parsing ----------------------------------------------------------------------


def test_yaml_file_round_trip(tmp_path):
    text = """
scenario:
  sigma_beta_deg: 2.0
  se_poses:
    - [0, 0, 0]
    - [120, 0, 90]
sweep:
  g_min: 0.0
  g_max: 1.0
  g_step: 0.5
  n_realizations: 3
demo:
  pd_min: 0.9
"""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.scenario.noise.sigma_bearing == pytest.approx(0.0349066, rel=1e-5)
    assert cfg.scenario.se_poses[1].theta == pytest.approx(math.pi / 2)
    assert cfg.sweep.g_values == (0.0, 0.5, 1.0)
    assert cfg.sweep.n_realizations == 3
    assert cfg.demo.pd_min == 0.9


def test_explicit_g_values_override_grid():
    cfg = parse_config({"sweep": {"g_values": [0, 2, 4], "g_min": 0.0, "g_max": 9.0}})
    assert cfg.sweep.g_values == (0.0, 2.0, 4.0)


def test_buildings_override_and_empty_map():
    cfg = parse_config({"scenario": {"buildings": [[10, 10, 20, 20]]}})
    assert cfg.scenario.static_map.rects == (Rect(10.0, 10.0, 20.0, 20.0),)
    empty = parse_config({"scenario": {"buildings": []}})
    assert empty.scenario.static_map.rects == ()
    assert empty.scenario.static_map.empty


def test_demo_policy_fields_parse():
    cfg = parse_config(
        {"demo": {"prohibited_areas": [[0, 0, 10, 10]], "historical_consent": False}}
    )
    assert cfg.demo.prohibited_areas == (Rect(0.0, 0.0, 10.0, 10.0),)
    assert cfg.demo.historical_consent is False


# -- validation -------------------------------------------------------------------


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="swep: unknown section"):
        parse_config({"swep": {}})
    with pytest.raises(ConfigError, match="scenario.sigma: unknown key"):
        parse_config({"scenario": {"sigma": 1.0}})


def test_violations_are_collected_with_dotted_paths():
    raw = {
        "scenario": {"sigma_r": -1.0, "p_det": 2.0},
        "sweep": {"n_realizations": 0},
        "demo": {"gate_g_det": 0.0},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    message = str(err.value)
    assert "scenario.sigma_r" in message
    assert "sweep.n_realizations" in message
    assert "demo.gate_g_det" in message


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match="scenario.p_det: expected a number"):
        parse_config({"scenario": {"p_det": True}})
    with pytest.raises(ConfigError, match="sweep.n_realizations: expected an integer"):
        parse_config({"sweep": {"n_realizations": True}})


def test_bad_rect_entries_are_reported_individually():
    raw = {"scenario": {"buildings": [[1, 2, 3], [30, 30, 40, 40]]}}
    with pytest.raises(ConfigError, match=r"scenario.buildings\[0\]"):
        parse_config(raw)


def test_bad_se_pose_rejected():
    with pytest.raises(ConfigError, match=r"scenario.se_poses\[0\]"):
        parse_config({"scenario": {"se_poses": [[0, 0]]}})


def test_top_level_must_be_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="expected a mapping"):
        load_config(path)


# Python's int-string limit (3.10.7+) stops PyYAML from reading this integer at
# all; without the limit it is read and then fails to fit a float.
HUGE_INT_PROBLEM = (
    "unreadable YAML value: Exceeds the limit"
    if hasattr(sys, "get_int_max_str_digits")
    else "scenario.sigma_r: must fit a 64-bit float"
)


@pytest.mark.parametrize(
    "text, problem",
    [
        ("scenario: {sigma_r: 1" + "0" * 5000 + "}\n", HUGE_INT_PROBLEM),
        ("demo:\n  pd_min: 2020-13-45\n", "unreadable YAML value: month must be in 1..12"),
    ],
    ids=["integer-past-digit-limit", "impossible-date"],
)
def test_unreadable_yaml_scalar_is_a_config_error(tmp_path, text, problem):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert problem in str(err.value)


def test_negative_grid_rejected():
    with pytest.raises(ConfigError, match="sweep.g_min"):
        parse_config({"sweep": {"g_min": -1.0}})
    with pytest.raises(ConfigError, match="sweep.g_step"):
        parse_config({"sweep": {"g_step": 0.0}})


@pytest.mark.parametrize("value", [0, 0.0, -0.5])
def test_non_positive_edge_jitter_is_a_config_error(value):
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {"edge_jitter_sigma": value}})
    assert err.value.violations == ["scenario.edge_jitter_sigma: must be > 0"]


@pytest.mark.parametrize(
    "scenario",
    [
        {"sigma_beta_deg": 5e-324},  # positive, but 0.0 once in radians
        {"edge_jitter_sigma": -1.0, "lambda_fa": -1.0, "edge_fraction": 2.0, "sigma_r": 0.0},
    ],
)
def test_model_constructors_never_raise_out_of_parse_config(scenario):
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": scenario})
    assert all(v.startswith("scenario") for v in err.value.violations)


@pytest.mark.parametrize(
    "key, value, violation",
    [
        ("sigma_r", 0.0, "scenario.sigma_r: must be > 0"),
        ("sigma_r", -0.8, "scenario.sigma_r: must be > 0"),
        # Past the world scale, squared noisy ranges would overflow.
        ("sigma_r", 1.0e308, "scenario.sigma_r: must be <= 1e+150"),
        ("sigma_beta_deg", 0.0, "scenario.sigma_beta_deg: must be > 0"),
        # Positive, but 0.0 once in radians.
        (
            "sigma_beta_deg",
            5e-324,
            "scenario.sigma_beta_deg: must be > 0 in radians, got 5e-324 degrees",
        ),
    ],
    ids=[
        "sigma-r-zero",
        "sigma-r-negative",
        "sigma-r-past-world-scale",
        "sigma-beta-zero",
        "sigma-beta-underflow",
    ],
)
def test_noise_violations_name_their_key(key, value, violation):
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {key: value}})
    assert err.value.violations == [violation]


@pytest.mark.parametrize(
    "raw, violation",
    [
        (
            {"scenario": {"sigma_r": 10**400}},
            "scenario.sigma_r: must fit a 64-bit float, got a 1329-bit integer",
        ),
        (
            {"demo": {"pd_min": -(10**400)}},
            "demo.pd_min: must fit a 64-bit float, got a 1329-bit integer",
        ),
        (
            {"scenario": {"se_poses": [[10**400, 0, 0]]}},
            "scenario.se_poses[0]: expected finite [x, y, theta_deg]",
        ),
        (
            {"scenario": {"buildings": [[0, 0, 10**400, 1]]}},
            "scenario.buildings[0]: int too large to convert to float",
        ),
        ({"sweep": {"g_values": [10**400]}}, "sweep.g_values[0]: expected a finite number >= 0"),
        (
            {"sweep": {"g_det_values": [10**400]}},
            "sweep.g_det_values[0]: expected a finite number > 0",
        ),
    ],
    ids=["sigma-r", "pd-min-negative", "se-pose", "building", "g-values", "g-det-values"],
)
def test_integers_too_large_for_a_float_name_their_key(raw, violation):
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [violation]


@pytest.mark.parametrize(
    "sweep, violations",
    [
        (
            {"g_values": [1.0, 1.0], "g_det_values": [3.0, 3.0]},
            [
                "sweep.g_values[1]: duplicate of sweep.g_values[0]",
                "sweep.g_det_values[1]: duplicate of sweep.g_det_values[0]",
            ],
        ),
        ({"g_values": [0, 2, 1, 2.0]}, ["sweep.g_values[3]: duplicate of sweep.g_values[1]"]),
        (
            {"g_det_values": [1, 3, 1.0, 1]},
            [
                "sweep.g_det_values[2]: duplicate of sweep.g_det_values[0]",
                "sweep.g_det_values[3]: duplicate of sweep.g_det_values[0]",
            ],
        ),
    ],
    ids=["both", "int-and-float", "repeated"],
)
def test_duplicate_grid_values_are_config_errors(sweep, violations):
    # A repeated value would pool two cells' realizations into one CSV row
    # and write that row twice.
    with pytest.raises(ConfigError) as err:
        parse_config({"sweep": sweep})
    assert err.value.violations == violations


@pytest.mark.parametrize("t_steps", [2**63, 10**40], ids=["2**63", "10**40"])
def test_t_steps_beyond_a_64_bit_index_is_a_config_error(t_steps):
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {"t_steps": t_steps}})
    assert err.value.violations == [
        f"scenario.t_steps: must be <= 2**63 - 1, got a {t_steps.bit_length()}-bit integer"
    ]


@pytest.mark.parametrize("aging_policy", [2**63, 10**30], ids=["2**63", "10**30"])
def test_aging_policy_past_int64_is_a_config_error(aging_policy):
    with pytest.raises(ConfigError) as err:
        parse_config({"demo": {"aging_policy": aging_policy}})
    assert err.value.violations == [
        f"demo.aging_policy: must be <= 2**63 - 1, got a {aging_policy.bit_length()}-bit integer"
    ]
    assert parse_config({"demo": {"aging_policy": 2**63 - 1}}).demo.aging_policy == 2**63 - 1


def test_clutter_mean_past_the_sampler_limit_is_a_config_error():
    # Only the bounds are parsed here: no clutter is ever drawn at such a mean.
    above = math.nextafter(POISSON_LAM_MAX, math.inf)
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {"lambda_fa": above}})
    assert err.value.violations == [
        f"scenario.lambda_fa: must be <= {POISSON_LAM_MAX!r}, the clutter sampler's limit,"
        f" got {above!r}"
    ]
    # The limit itself passes the key's check; the cross check then refuses it.
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {"lambda_fa": POISSON_LAM_MAX, "t_steps": 1}})
    assert err.value.violations == [
        "scenario.lambda_fa: lambda_fa * t_steps, the expected clutter detections per"
        f" realization, must be <= {ROWS_PER_REALIZATION_MAX}, got {POISSON_LAM_MAX!r}"
    ]


@pytest.mark.parametrize(
    "lambda_fa, t_steps, fits",
    [
        (60.0, 100, True),
        (100_000.0, 100, True),
        (math.nextafter(100_000, math.inf), 100, False),
        (1.0e12, 100, False),
        # Long runs short enough that their sight-line rows, 17 per step,
        # stay within their own bound.
        (18.0, 555_555, True),
        (18.0, 555_556, False),
    ],
    ids=["default", "at-limit", "past-limit", "terabytes", "long-run", "long-run-past-limit"],
)
def test_clutter_per_realization_is_bounded(lambda_fa, t_steps, fits):
    raw = {"scenario": {"lambda_fa": lambda_fa, "t_steps": t_steps}}
    if fits:
        assert parse_config(raw).scenario.t_steps == t_steps
        return
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [
        "scenario.lambda_fa: lambda_fa * t_steps, the expected clutter detections per"
        f" realization, must be <= {ROWS_PER_REALIZATION_MAX}, got {lambda_fa * t_steps!r}"
    ]


@pytest.mark.parametrize(
    "scenario, rows",
    [
        ({}, None),
        ({"lambda_fa": 0, "t_steps": 588_235}, None),
        ({"lambda_fa": 0, "t_steps": 588_236}, 10_000_012),
        ({"lambda_fa": 1.0, "t_steps": 10**7}, 170_000_000),
        ({"lambda_fa": 0, "t_steps": 10**9}, 17_000_000_000),
        ({"lambda_fa": 0, "n_targets": 0, "t_steps": 10**7}, None),
        ({"lambda_fa": 0, "n_targets": 0, "t_steps": 10**7 + 1}, 10**7 + 1),
        # It passes its own int64 check; only this bound refuses it.
        ({"lambda_fa": 0, "n_targets": 0, "t_steps": 2**63 - 1}, 2**63 - 1),
    ],
    ids=[
        "default",
        "at-limit",
        "past-limit",
        "long-run",
        "billion-steps",
        "no-targets",
        "no-targets-past-limit",
        "largest-64-bit-t-steps",
    ],
)
def test_sight_lines_per_realization_are_bounded(scenario, rows):
    # t_steps * (1 + len(se_poses) * n_targets): the default has 2 SEs and 8 targets.
    raw = {"scenario": scenario}
    if rows is None:
        assert parse_config(raw).scenario.t_steps == scenario.get("t_steps", 100)
        return
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [
        "scenario.t_steps: t_steps * (1 + len(se_poses) * n_targets), the step and target"
        f" sight-line rows per realization, must be <= {ROWS_PER_REALIZATION_MAX}, got {rows}"
    ]


@pytest.mark.parametrize(
    "bounds, fits",
    [
        ([-WORLD_SCALE_MAX, -WORLD_SCALE_MAX, WORLD_SCALE_MAX, WORLD_SCALE_MAX], True),
        ([0, 0, 1.0e300, 1.0e300], False),
        ([-1.0e308, 0, 1.0e308, 120], False),
        ([0, -1.0e151, 120, 120], False),
    ],
    ids=["at-limit", "squares-overflow", "width-overflows", "one-coordinate"],
)
def test_bounds_are_within_the_world_scale(bounds, fits):
    raw = {"scenario": {"bounds": bounds, "se_poses": [[0, 0, 0]], "buildings": []}}
    if fits:
        assert parse_config(raw).scenario.bounds == Rect(*bounds)
        return
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [
        "scenario.bounds: every |coordinate| must be <= 1e+150,"
        f" got {tuple(float(v) for v in bounds)}"
    ]


@pytest.mark.parametrize(
    "sweep",
    [
        {"g_min": 0, "g_max": 1.0e300, "g_step": 1.0e-300},
        {"g_min": 0, "g_max": 1, "g_step": 5e-324},
    ],
    ids=["huge-range", "subnormal-step"],
)
def test_grid_count_past_float_range_is_a_config_error(sweep):
    with pytest.raises(ConfigError) as err:
        parse_config({"sweep": sweep})
    assert err.value.violations == [
        "sweep.g_step: (g_max - g_min) / g_step must be finite, got inf"
    ]


ONE_CELL = {"g_values": [0.0], "g_det_values": [1.0], "baseline": False}


@pytest.mark.parametrize(
    "sweep, violation",
    [
        ({}, None),
        # The default grid has 6 * (1 + 21) = 132 cells.
        ({"n_realizations": 75_757}, None),
        ({"n_realizations": 75_758}, ("sweep.n_realizations", "132 * 75758 = 10000056")),
        ({**ONE_CELL, "n_realizations": 10**7}, None),
        (
            {**ONE_CELL, "n_realizations": 10**7 + 1},
            ("sweep.n_realizations", "1 * 10000001 = 10000001"),
        ),
        # 5e9 + 1 margins: counted from g_step, never built.
        ({"g_step": 1.0e-9}, ("sweep.g_step", "30000000012 * 50 = 1500000000600")),
        # More cells than the bound on their own: the grid is named.
        (
            {"g_values": list(range(3_200)), "g_det_values": list(range(1, 3_201))},
            ("sweep.g_values", "10243200 * 50 = 512160000"),
        ),
    ],
    ids=[
        "default",
        "at-limit",
        "past-limit",
        "one-cell-at-limit",
        "one-cell-past-limit",
        "tiny-g-step",
        "many-gates",
    ],
)
def test_sweep_cells_times_realizations_are_bounded(sweep, violation):
    if violation is None:
        assert parse_config({"sweep": sweep}).sweep.n_realizations == sweep.get(
            "n_realizations", 50
        )
        return
    with pytest.raises(ConfigError) as err:
        parse_config({"sweep": sweep})
    name, product = violation
    (message,) = err.value.violations
    assert message.startswith(f"{name}: the cells times n_realizations")
    assert message.endswith(f"must be <= {SWEEP_VALUES_MAX}, got {product}")


def test_every_key_reports_once_in_table_order():
    # Unknown sections first; then per section its unknown keys, then its keys
    # in table order, each with its kind problem or its check problem.
    raw = {
        "plots": {},
        "scenario": {
            "bounds": [0, 0, 1],
            "buildings": [[5, 5, 1, 1]],
            "se_poses": [[0, 0]],
            "sigma_r": 0,
            "sigma_beta_deg": 5e-324,
            "p_det": "high",
            "n_targets": 2.5,
            "lambda_fa": -1,
            "edge_fraction": 2,
            "edge_jitter_sigma": math.inf,
            "t_steps": 2**63,
            "seed": -1,
            "colour": "red",
        },
        "sweep": {
            "g_min": True,
            "g_max": 10**400,
            "g_step": "fine",
            "g_values": [1, 1.0],
            "g_det_values": [0],
            "n_realizations": 0,
            "baseline": "yes",
            "g": 1,
        },
        "demo": {
            "pd_min": 1.5,
            "fa_max": -1,
            "historical_consent": "no",
            "max_age": -1,
            "requester_kind": 7,
            "target_type": ["vehicle"],
            "mask_margin_g": -0.5,
            "gate_g_det": 0,
            "prohibited_areas": "north",
            "preseed_partial_map": 1,
            "aging_policy": 1.5,
            "archive_raw": None,
            "colour": "blue",
        },
    }
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [
        "plots: unknown section",
        "scenario.colour: unknown key",
        "scenario.bounds: expected [x_min, y_min, x_max, y_max]",
        "scenario.buildings[0]: rect must satisfy x_min < x_max and y_min < y_max,"
        " got (5.0, 5.0, 1.0, 1.0)",
        "scenario.se_poses[0]: expected finite [x, y, theta_deg]",
        "scenario.sigma_r: must be > 0",
        "scenario.sigma_beta_deg: must be > 0 in radians, got 5e-324 degrees",
        "scenario.p_det: expected a number, got 'high'",
        "scenario.n_targets: expected an integer, got 2.5",
        "scenario.lambda_fa: must be >= 0",
        "scenario.edge_fraction: must be in [0, 1]",
        "scenario.edge_jitter_sigma: must be finite, got inf",
        "scenario.t_steps: must be <= 2**63 - 1, got a 64-bit integer",
        "scenario.seed: must be >= 0",
        "sweep.g: unknown key",
        "sweep.g_min: expected a number, got True",
        "sweep.g_max: must fit a 64-bit float, got a 1329-bit integer",
        "sweep.g_step: expected a number, got 'fine'",
        "sweep.g_values[1]: duplicate of sweep.g_values[0]",
        "sweep.g_det_values[0]: expected a finite number > 0",
        "sweep.n_realizations: must be >= 1",
        "sweep.baseline: expected a boolean, got 'yes'",
        "demo.colour: unknown key",
        "demo.pd_min: must be in [0, 1]",
        "demo.fa_max: must be >= 0",
        "demo.historical_consent: expected a boolean, got 'no'",
        "demo.max_age: must be >= 0",
        "demo.requester_kind: expected a string, got 7",
        "demo.target_type: expected a string, got ['vehicle']",
        "demo.mask_margin_g: must be >= 0",
        "demo.gate_g_det: must be > 0",
        "demo.prohibited_areas: expected a list of rectangles",
        "demo.preseed_partial_map: expected a boolean, got 1",
        "demo.aging_policy: expected an integer, got 1.5",
        "demo.archive_raw: expected a boolean, got None",
    ]


def test_cross_key_checks_run_after_the_keys_they_read():
    raw = {"scenario": {"buildings": [[200, 200, 210, 210]], "seed": -1}}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [
        "scenario.seed: must be >= 0",
        "scenario.buildings: static map rects must intersect the bounds"
        " (0.0, 0.0, 120.0, 120.0); offending rects: [(200.0, 200.0, 210.0, 210.0)]",
    ]
    # A key with a problem is reported on its own; no cross-key check reads it.
    raw = {"scenario": {"bounds": [0, 0, 1], "buildings": [[200, 200, 210, 210]]}}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == ["scenario.bounds: expected [x_min, y_min, x_max, y_max]"]


def test_readme_key_tables_match_the_config_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for section, rows in KEYS.items():
        heading = rf"^### `{section}`\n\n\| key .*\n\| --- .*\n((?:\|.*\n)+)"
        table = re.search(heading, readme, re.M)
        assert table is not None, f"README has no key table for {section}"
        cells = [line.split("|")[1] for line in table.group(1).splitlines()]
        documented = [key.strip(" `") for cell in cells for key in cell.split(" / ")]
        assert sorted(documented) == sorted(rows), section
