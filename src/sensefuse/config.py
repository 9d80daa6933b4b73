"""YAML configuration for the sweep harness and the call-flow demo.

Every setting has a default matching the reference scenario, so an empty (or
absent) file is a complete configuration.  Validation collects all problems
before raising, reporting each offending key by its dotted path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .geometry import Rect, StaticMap
from .measurement import NoiseModel, Pose
from .scenario import (
    DEFAULT_BOUNDS,
    DEFAULT_BUILDINGS,
    ClutterModel,
    ScenarioConfig,
)

DEFAULT_G_DET_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0, 10.0)


@dataclass(frozen=True)
class SweepSettings:
    """Margin/gate grid and Monte-Carlo depth for the sweep harness."""

    g_values: tuple[float, ...]
    g_det_values: tuple[float, ...] = DEFAULT_G_DET_VALUES
    n_realizations: int = 50
    include_baseline: bool = True


@dataclass(frozen=True)
class DemoSettings:
    """Service request, filter, and policy knobs for the call-flow demo."""

    pd_min: float = 0.75
    fa_max: float = 50.0
    historical_consent: bool = True
    max_age: int = 1000
    target_type: str = "vehicle"
    mask_margin_g: float = 2.0
    gate_g_det: float = 3.0
    prohibited_areas: tuple[Rect, ...] = ()
    charging_rules: tuple[str, ...] = ()
    preseed_partial_map: bool = True
    aging_policy: int = 100_000
    archive_raw: bool = False


@dataclass(frozen=True)
class AppConfig:
    scenario: ScenarioConfig
    sweep: SweepSettings
    demo: DemoSettings


def default_g_values(g_min: float = 0.0, g_max: float = 5.0, g_step: float = 0.25) -> tuple[float, ...]:
    """Inclusive arithmetic grid of mask margins."""
    if g_step <= 0:
        raise ConfigError("sweep.g_step: must be > 0")
    n = int(math.floor((g_max - g_min) / g_step + 0.5)) + 1
    if n < 1:
        raise ConfigError("sweep.g_max: must be >= sweep.g_min")
    values = tuple(round(g_min + i * g_step, 12) for i in range(n))
    return values


def load_config(path: str | Path | None) -> AppConfig:
    """Load a YAML config file; ``None`` or an empty file means all defaults."""
    raw: object = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark is not None else ""
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{path}: invalid YAML{where}: {problem}") from exc
        except ValueError as exc:
            # PyYAML converts scalars itself: an integer literal past Python's
            # int-string digit limit, or an impossible date, raises here.
            raise ConfigError(f"{path}: unreadable YAML value: {exc}") from exc
        if raw is None:
            raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping of sections")
    return parse_config(raw)


def parse_config(raw: dict) -> AppConfig:
    problems: list[str] = []
    known_sections = {"scenario", "sweep", "demo"}
    for key in raw:
        if key not in known_sections:
            problems.append(f"{key}: unknown section")
    scenario = _parse_scenario(raw.get("scenario") or {}, problems)
    sweep = _parse_sweep(raw.get("sweep") or {}, problems)
    demo = _parse_demo(raw.get("demo") or {}, problems)
    if problems:
        raise ConfigError(problems)
    return AppConfig(scenario=scenario, sweep=sweep, demo=demo)


def _section(raw: object, name: str, problems: list[str]) -> dict:
    if not isinstance(raw, dict):
        problems.append(f"{name}: expected a mapping")
        return {}
    return raw


def _as_float(value: int | float) -> float | None:
    """``float(value)``, or None when that is infinite, NaN, or too large to convert."""
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _finite(value: object) -> bool:
    """A real number (not a bool) that is a finite float."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and _as_float(value) is not None
    )


def _number(raw: dict, section: str, key: str, default: float, problems: list[str]) -> float:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{section}.{key}: expected a number, got {value!r}")
        return default
    x = _as_float(value)
    if x is None and isinstance(value, int):
        problems.append(
            f"{section}.{key}: must fit a 64-bit float, got a {value.bit_length()}-bit integer"
        )
        return default
    if x is None:
        problems.append(f"{section}.{key}: must be finite, got {value!r}")
        return default
    return x


def _integer(raw: dict, section: str, key: str, default: int, problems: list[str]) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{section}.{key}: expected an integer, got {value!r}")
        return default
    return value


def _boolean(raw: dict, section: str, key: str, default: bool, problems: list[str]) -> bool:
    value = raw.get(key, default)
    if not isinstance(value, bool):
        problems.append(f"{section}.{key}: expected a boolean, got {value!r}")
        return default
    return value


def _string(raw: dict, section: str, key: str, default: str, problems: list[str]) -> str:
    value = raw.get(key, default)
    if not isinstance(value, str):
        problems.append(f"{section}.{key}: expected a string, got {value!r}")
        return default
    return value


def _rect(value: object, where: str, problems: list[str]) -> Rect | None:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 4
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        problems.append(f"{where}: expected [x_min, y_min, x_max, y_max]")
        return None
    try:
        return Rect(*(float(v) for v in value))
    except (ValueError, OverflowError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _check_keys(raw: dict, section: str, allowed: set[str], problems: list[str]) -> None:
    for key in raw:
        if key not in allowed:
            problems.append(f"{section}.{key}: unknown key")


def _parse_scenario(raw: object, problems: list[str]) -> ScenarioConfig:
    raw = _section(raw, "scenario", problems)
    _check_keys(
        raw,
        "scenario",
        {
            "bounds",
            "buildings",
            "se_poses",
            "sigma_r",
            "sigma_beta_deg",
            "p_det",
            "n_targets",
            "lambda_fa",
            "edge_fraction",
            "edge_jitter_sigma",
            "t_steps",
            "seed",
        },
        problems,
    )

    bounds = DEFAULT_BOUNDS
    if "bounds" in raw:
        parsed = _rect(raw["bounds"], "scenario.bounds", problems)
        if parsed is not None:
            bounds = parsed

    buildings = DEFAULT_BUILDINGS
    if "buildings" in raw:
        value = raw["buildings"]
        if not isinstance(value, list):
            problems.append("scenario.buildings: expected a list of rectangles")
        else:
            rects = []
            for i, entry in enumerate(value):
                parsed = _rect(entry, f"scenario.buildings[{i}]", problems)
                if parsed is not None:
                    rects.append(parsed)
            buildings = tuple(rects)

    se_poses: tuple[Pose, ...] | None = None
    if "se_poses" in raw:
        value = raw["se_poses"]
        if not isinstance(value, list) or not value:
            problems.append("scenario.se_poses: expected a non-empty list of [x, y, theta_deg]")
        else:
            poses = []
            for i, entry in enumerate(value):
                if (
                    not isinstance(entry, (list, tuple))
                    or len(entry) != 3
                    or not all(_finite(v) for v in entry)
                ):
                    problems.append(f"scenario.se_poses[{i}]: expected finite [x, y, theta_deg]")
                    continue
                poses.append(Pose(float(entry[0]), float(entry[1]), math.radians(float(entry[2]))))
            if poses:
                se_poses = tuple(poses)

    sigma_r = _number(raw, "scenario", "sigma_r", 0.8, problems)
    sigma_beta_deg = _number(raw, "scenario", "sigma_beta_deg", 2.0, problems)
    p_det = _number(raw, "scenario", "p_det", 0.95, problems)
    n_targets = _integer(raw, "scenario", "n_targets", 8, problems)
    lambda_fa = _number(raw, "scenario", "lambda_fa", 60.0, problems)
    edge_fraction = _number(raw, "scenario", "edge_fraction", 0.7, problems)
    edge_jitter_sigma = _number(raw, "scenario", "edge_jitter_sigma", 1.0, problems)
    t_steps = _integer(raw, "scenario", "t_steps", 100, problems)
    seed = _integer(raw, "scenario", "seed", 7, problems)

    if sigma_r <= 0:
        problems.append("scenario.sigma_r: must be > 0")
    if sigma_beta_deg <= 0:
        problems.append("scenario.sigma_beta_deg: must be > 0")
    elif math.radians(sigma_beta_deg) == 0.0:
        problems.append(
            f"scenario.sigma_beta_deg: must be > 0 in radians, got {sigma_beta_deg!r} degrees"
        )
    if problems:
        # Noise values already reported; keep placeholders valid for the return.
        sigma_r = max(sigma_r, 1e-9)
        sigma_beta_deg = max(sigma_beta_deg, 1e-9)

    try:
        static_map: StaticMap | None = StaticMap(buildings, bounds)
    except ValueError as exc:
        problems.append(f"scenario.buildings: {exc}")
        static_map = None
    if lambda_fa < 0:
        problems.append("scenario.lambda_fa: must be >= 0")
    if not 0.0 <= edge_fraction <= 1.0:
        problems.append("scenario.edge_fraction: must be in [0, 1]")
    if edge_jitter_sigma <= 0:
        problems.append("scenario.edge_jitter_sigma: must be > 0")
    if t_steps < 1:
        problems.append("scenario.t_steps: must be >= 1")
    elif t_steps >= 2**63:  # the steps are indexed by numpy int64
        problems.append(
            f"scenario.t_steps: must be <= 2**63 - 1, got a {t_steps.bit_length()}-bit integer"
        )
    if seed < 0:
        problems.append("scenario.seed: must be >= 0")
    # Bad values are reported above and replaced by valid placeholders.
    return ScenarioConfig(
        bounds=bounds,
        static_map=static_map,
        se_poses=se_poses or ScenarioConfig.se_poses,
        noise=NoiseModel(sigma_range=sigma_r, sigma_bearing=math.radians(sigma_beta_deg)),
        p_det=p_det,
        n_targets=n_targets,
        clutter=ClutterModel(
            lambda_fa=max(lambda_fa, 0.0),
            edge_fraction=min(max(edge_fraction, 0.0), 1.0),
            edge_jitter_sigma=edge_jitter_sigma if edge_jitter_sigma > 0 else 1.0,
        ),
        t_steps=max(t_steps, 1),
        seed=max(seed, 0),
    )


def _grid_values(raw: dict, key: str, positive: bool, problems: list[str]) -> tuple[float, ...]:
    """The valid values of ``sweep.<key>`` as floats, with a problem per bad entry.

    Values must be finite and ``>= 0`` (``> 0`` when ``positive``).  Cells are
    keyed by value, so entries equal as floats (``1`` and ``1.0``) would pool
    their results: they are duplicates.
    """
    name = f"sweep.{key}"
    value = raw[key]
    if not isinstance(value, list) or not value:
        problems.append(f"{name}: expected a non-empty list of numbers")
        return ()
    bound = "> 0" if positive else ">= 0"
    first: dict[float, int] = {}
    for i, v in enumerate(value):
        if not _finite(v) or v < 0 or (positive and v == 0):
            problems.append(f"{name}[{i}]: expected a finite number {bound}")
        elif (j := first.setdefault(float(v), i)) != i:
            problems.append(f"{name}[{i}]: duplicate of {name}[{j}]")
    return tuple(first)


def _parse_sweep(raw: object, problems: list[str]) -> SweepSettings:
    raw = _section(raw, "sweep", problems)
    _check_keys(
        raw,
        "sweep",
        {"g_min", "g_max", "g_step", "g_values", "g_det_values", "n_realizations", "baseline"},
        problems,
    )
    g_min = _number(raw, "sweep", "g_min", 0.0, problems)
    g_max = _number(raw, "sweep", "g_max", 5.0, problems)
    g_step = _number(raw, "sweep", "g_step", 0.25, problems)

    g_values: tuple[float, ...]
    if "g_values" in raw:
        g_values = _grid_values(raw, "g_values", False, problems) or default_g_values()
    else:
        if g_min < 0:
            problems.append("sweep.g_min: must be >= 0")
        if g_step <= 0:
            problems.append("sweep.g_step: must be > 0")
        if g_max < g_min:
            problems.append("sweep.g_max: must be >= sweep.g_min")
        if problems:
            g_values = default_g_values()
        else:
            g_values = default_g_values(g_min, g_max, g_step)

    g_det_values: tuple[float, ...] = DEFAULT_G_DET_VALUES
    if "g_det_values" in raw:
        g_det_values = _grid_values(raw, "g_det_values", True, problems) or DEFAULT_G_DET_VALUES

    n_realizations = _integer(raw, "sweep", "n_realizations", 50, problems)
    if n_realizations < 1:
        problems.append("sweep.n_realizations: must be >= 1")
        n_realizations = 1
    include_baseline = _boolean(raw, "sweep", "baseline", True, problems)
    return SweepSettings(
        g_values=g_values,
        g_det_values=g_det_values,
        n_realizations=n_realizations,
        include_baseline=include_baseline,
    )


def _parse_demo(raw: object, problems: list[str]) -> DemoSettings:
    raw = _section(raw, "demo", problems)
    _check_keys(
        raw,
        "demo",
        {
            "pd_min",
            "fa_max",
            "historical_consent",
            "max_age",
            "requester_kind",
            "target_type",
            "mask_margin_g",
            "gate_g_det",
            "prohibited_areas",
            "charging_rules",
            "preseed_partial_map",
            "aging_policy",
            "archive_raw",
        },
        problems,
    )
    pd_min = _number(raw, "demo", "pd_min", 0.75, problems)
    fa_max = _number(raw, "demo", "fa_max", 50.0, problems)
    historical_consent = _boolean(raw, "demo", "historical_consent", True, problems)
    max_age = _integer(raw, "demo", "max_age", 1000, problems)
    # Still accepted and checked so that existing configs load; no policy rule reads it.
    _string(raw, "demo", "requester_kind", "trusted-app", problems)
    target_type = _string(raw, "demo", "target_type", "vehicle", problems)
    mask_margin_g = _number(raw, "demo", "mask_margin_g", 2.0, problems)
    gate_g_det = _number(raw, "demo", "gate_g_det", 3.0, problems)
    preseed_partial_map = _boolean(raw, "demo", "preseed_partial_map", True, problems)
    aging_policy = _integer(raw, "demo", "aging_policy", 100_000, problems)
    archive_raw = _boolean(raw, "demo", "archive_raw", False, problems)

    prohibited: tuple[Rect, ...] = ()
    if "prohibited_areas" in raw:
        value = raw["prohibited_areas"]
        if not isinstance(value, list):
            problems.append("demo.prohibited_areas: expected a list of rectangles")
        else:
            rects = []
            for i, entry in enumerate(value):
                parsed = _rect(entry, f"demo.prohibited_areas[{i}]", problems)
                if parsed is not None:
                    rects.append(parsed)
            prohibited = tuple(rects)

    charging: tuple[str, ...] = ()
    if "charging_rules" in raw:
        value = raw["charging_rules"]
        if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
            problems.append("demo.charging_rules: expected a list of strings")
        else:
            charging = tuple(value)

    if not 0.0 <= pd_min <= 1.0:
        problems.append("demo.pd_min: must be in [0, 1]")
    if fa_max < 0:
        problems.append("demo.fa_max: must be >= 0")
    if max_age < 0:
        problems.append("demo.max_age: must be >= 0")
    if mask_margin_g < 0:
        problems.append("demo.mask_margin_g: must be >= 0")
    if gate_g_det <= 0:
        problems.append("demo.gate_g_det: must be > 0")
    if aging_policy < 0:
        problems.append("demo.aging_policy: must be >= 0")

    return DemoSettings(
        pd_min=min(max(pd_min, 0.0), 1.0),
        fa_max=max(fa_max, 0.0),
        historical_consent=historical_consent,
        max_age=max(max_age, 0),
        target_type=target_type,
        mask_margin_g=max(mask_margin_g, 0.0),
        gate_g_det=max(gate_g_det, 1e-9),
        prohibited_areas=prohibited,
        charging_rules=charging,
        preseed_partial_map=preseed_partial_map,
        aging_policy=max(aging_policy, 0),
        archive_raw=archive_raw,
    )
