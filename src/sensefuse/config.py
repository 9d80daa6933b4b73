"""YAML configuration for the sweep harness and the call-flow demo.

``KEYS`` is the one table of settings: each key's kind, default and check.
Every key has a default matching the reference scenario, so an empty (or
absent) file is a complete configuration.  Validation collects all problems
before raising, naming each offending key by its dotted path, in one order:
unknown sections, then per section its unknown keys, its keys in table order,
and its cross-key checks.  Settings are built only when there is no problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import yaml

from .errors import ConfigError
from .geometry import Rect, StaticMap
from .measurement import NoiseModel, Pose
from .scenario import (
    DEFAULT_BOUNDS,
    DEFAULT_BUILDINGS,
    POISSON_LAM_MAX,
    ClutterModel,
    ScenarioConfig,
)
from .sdsf_store import TARGET_TYPES

DEFAULT_G_DET_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0, 10.0)


@dataclass(frozen=True)
class SweepSettings:
    """Margin/gate grid and Monte-Carlo depth for the sweep harness."""

    g_values: tuple[float, ...]
    g_det_values: tuple[float, ...]
    n_realizations: int
    include_baseline: bool


@dataclass(frozen=True)
class DemoSettings:
    """Service request, filter, and policy knobs for the call-flow demo."""

    pd_min: float
    fa_max: float
    historical_consent: bool
    max_age: int
    target_type: str
    mask_margin_g: float
    gate_g_det: float
    prohibited_areas: tuple[Rect, ...]
    preseed_partial_map: bool
    aging_policy: int
    archive_raw: bool


@dataclass(frozen=True)
class AppConfig:
    scenario: ScenarioConfig
    sweep: SweepSettings
    demo: DemoSettings


def default_g_values(
    g_min: float = 0.0, g_max: float = 5.0, g_step: float = 0.25
) -> tuple[float, ...]:
    """Inclusive arithmetic grid of mask margins; needs ``g_step > 0`` and ``g_max >= g_min``."""
    n = int(math.floor((g_max - g_min) / g_step + 0.5)) + 1
    return tuple(round(g_min + i * g_step, 12) for i in range(n))


def load_config(path: str | Path | None) -> AppConfig:
    """Load a YAML config file; ``None`` or an empty file means all defaults."""
    raw: object = {}
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark is not None else ""
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{path}: invalid YAML{where}: {problem}") from exc
        except ValueError as exc:
            # A file that is not UTF-8 raises here, and so does a scalar PyYAML
            # converts: an integer past Python's int-string digit limit, or an
            # impossible date.
            raise ConfigError(f"{path}: unreadable YAML value: {exc}") from exc
        if raw is None:
            raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping of sections")
    return parse_config(raw)


Kind = Callable[[Any, str], tuple[Any, list[str]]]  # (value, dotted name) -> (value, problems)
Check = Callable[[Any], str | None]  # parsed value -> problem, or None


def _number(value: object, name: str) -> tuple[Any, list[str]]:
    """A finite number (not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None, [f"{name}: expected a number, got {value!r}"]
    try:
        x = float(value)
    except OverflowError:
        return None, [f"{name}: must fit a 64-bit float, got a {value.bit_length()}-bit integer"]
    if not math.isfinite(x):
        return None, [f"{name}: must be finite, got {value!r}"]
    return x, []


def _typed(noun: str, accepts: Callable[[object], bool]) -> Kind:
    """A kind that takes a value as it is, when ``accepts`` it."""

    def kind(value: object, name: str) -> tuple[Any, list[str]]:
        if accepts(value):
            return value, []
        return None, [f"{name}: expected {noun}, got {value!r}"]

    return kind


_integer = _typed("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_boolean = _typed("a boolean", lambda v: isinstance(v, bool))
_string = _typed("a string", lambda v: isinstance(v, str))


def _rect(value: object, name: str) -> tuple[Any, list[str]]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 4
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        return None, [f"{name}: expected [x_min, y_min, x_max, y_max]"]
    try:
        return Rect(*(float(v) for v in value)), []
    except (ValueError, OverflowError) as exc:
        return None, [f"{name}: {exc}"]


def _pose(value: object, name: str) -> tuple[Any, list[str]]:
    if isinstance(value, (list, tuple)) and len(value) == 3:
        x, y, theta_deg = [_number(v, name)[0] for v in value]
        if None not in (x, y, theta_deg):
            return Pose(x, y, math.radians(theta_deg)), []
    return None, [f"{name}: expected finite [x, y, theta_deg]"]


def _list_of(entry: Kind, expected: str, non_empty: bool) -> Kind:
    """A list (non-empty if asked) of ``entry`` values, each problem named by its index."""

    def kind(value: object, name: str) -> tuple[Any, list[str]]:
        if not isinstance(value, list) or (non_empty and not value):
            return None, [f"{name}: expected {expected}"]
        parsed = [entry(v, f"{name}[{i}]") for i, v in enumerate(value)]
        return tuple(v for v, _ in parsed), [p for _, problems in parsed for p in problems]

    return kind


_rects = _list_of(_rect, "a list of rectangles", non_empty=False)
_poses = _list_of(_pose, "a non-empty list of [x, y, theta_deg]", non_empty=True)


def _grid(positive: bool) -> Kind:
    """A non-empty list of finite numbers ``>= 0`` (``> 0`` when ``positive``), as floats.

    Cells are keyed by value, so entries equal as floats (``1`` and ``1.0``)
    would pool their results: they are duplicates.
    """
    bound = "> 0" if positive else ">= 0"

    def kind(value: object, name: str) -> tuple[Any, list[str]]:
        if not isinstance(value, list) or not value:
            return None, [f"{name}: expected a non-empty list of numbers"]
        problems = []
        first: dict[float, int] = {}
        for i, v in enumerate(value):
            x, bad = _number(v, name)
            if bad or x < 0 or (positive and x == 0):
                problems.append(f"{name}[{i}]: expected a finite number {bound}")
            elif (j := first.setdefault(x, i)) != i:
                problems.append(f"{name}[{i}]: duplicate of {name}[{j}]")
        return tuple(first), problems

    return kind


def _check(holds: Callable[[Any], bool], problem: str) -> Check:
    return lambda x: None if holds(x) else problem


_positive = _check(lambda x: x > 0, "must be > 0")
_non_negative = _check(lambda x: x >= 0, "must be >= 0")
_at_least_one = _check(lambda n: n >= 1, "must be >= 1")
_unit = _check(lambda x: 0.0 <= x <= 1.0, "must be in [0, 1]")


def _positive_in_radians(degrees: float) -> str | None:
    if degrees > 0 and math.radians(degrees) == 0.0:
        return f"must be > 0 in radians, got {degrees!r} degrees"
    return _positive(degrees)


def _past_int64(n: int) -> str | None:
    # Steps are indexed by numpy int64, and the store holds 64-bit integers.
    return f"must be <= 2**63 - 1, got a {n.bit_length()}-bit integer" if n >= 2**63 else None


def _step_count(t: int) -> str | None:
    return _past_int64(t) or _at_least_one(t)


def _aging_steps(a: int) -> str | None:
    return _past_int64(a) or _non_negative(a)


# Coordinates and lengths in meters are at most this in magnitude, so that a
# squared distance between two points of the world, noise included, is finite.
WORLD_SCALE_MAX = 1e150


def _in_world(rect: Rect) -> str | None:
    if max(map(abs, rect.as_tuple())) <= WORLD_SCALE_MAX:
        return None
    return f"every |coordinate| must be <= {WORLD_SCALE_MAX!r}, got {rect.as_tuple()}"


def _world_length(x: float) -> str | None:
    return _positive(x) or (None if x <= WORLD_SCALE_MAX else f"must be <= {WORLD_SCALE_MAX!r}")


def _poisson_mean(lam: float) -> str | None:
    if lam > POISSON_LAM_MAX:
        return f"must be <= {POISSON_LAM_MAX!r}, the clutter sampler's limit, got {lam!r}"
    return _non_negative(lam)


def _target_type(value: str) -> str | None:
    return None if value in TARGET_TYPES else f"must be one of {TARGET_TYPES}, got {value!r}"


KEYS: dict[str, dict[str, tuple[Kind, Any, Check | None]]] = {
    # section: {key: (kind, default, check)}
    "scenario": {
        "bounds": (_rect, DEFAULT_BOUNDS, _in_world),
        "buildings": (_rects, DEFAULT_BUILDINGS, None),
        "se_poses": (_poses, ScenarioConfig.se_poses, None),
        "sigma_r": (_number, 0.8, _world_length),
        "sigma_beta_deg": (_number, 2.0, _positive_in_radians),
        "p_det": (_number, 0.95, None),  # build_scenario checks p_det and n_targets
        "n_targets": (_integer, 8, None),
        "lambda_fa": (_number, 60.0, _poisson_mean),
        "edge_fraction": (_number, 0.7, _unit),
        "edge_jitter_sigma": (_number, 1.0, _positive),
        "t_steps": (_integer, 100, _step_count),
        "seed": (_integer, 7, _non_negative),
    },
    "sweep": {
        "g_min": (_number, 0.0, None),  # the grid keys are checked together
        "g_max": (_number, 5.0, None),
        "g_step": (_number, 0.25, None),
        "g_values": (_grid(positive=False), None, None),  # None: the g_min/g_max/g_step grid
        "g_det_values": (_grid(positive=True), DEFAULT_G_DET_VALUES, None),
        "n_realizations": (_integer, 50, _at_least_one),
        "baseline": (_boolean, True, None),
    },
    "demo": {
        "pd_min": (_number, 0.75, _unit),
        "fa_max": (_number, 50.0, _non_negative),
        "historical_consent": (_boolean, True, None),
        "max_age": (_integer, 1000, _non_negative),
        "requester_kind": (_string, "trusted-app", None),  # accepted; nothing reads it
        "target_type": (_string, "vehicle", _target_type),
        "mask_margin_g": (_number, 2.0, _non_negative),
        "gate_g_det": (_number, 3.0, _positive),
        "prohibited_areas": (_rects, (), None),
        "preseed_partial_map": (_boolean, True, None),
        "aging_policy": (_integer, 100_000, _aging_steps),
        "archive_raw": (_boolean, False, None),
    },
}


# -- cross-key checks: run once every key they read is free of problems ----------


def _map_fits(bounds: Rect, buildings: tuple[Rect, ...]) -> list[str]:
    try:
        StaticMap(buildings, bounds)
    except ValueError as exc:
        return [f"scenario.buildings: {exc}"]
    return []


def _grid_fits(g_min: float, g_max: float, g_step: float, g_values: object) -> list[str]:
    if g_values is not None:
        return []  # an explicit list replaces the grid
    problems = []
    if g_min < 0:
        problems.append("sweep.g_min: must be >= 0")
    if g_step <= 0:
        problems.append("sweep.g_step: must be > 0")
    if g_max < g_min:
        problems.append("sweep.g_max: must be >= sweep.g_min")
    if not problems and not math.isfinite(count := (g_max - g_min) / g_step):
        problems.append(f"sweep.g_step: (g_max - g_min) / g_step must be finite, got {count!r}")
    return problems


# Rows of one kind that a realization holds in memory at once.  The default
# config expects 60 * 100 = 6,000 clutter detections and has
# 100 * (1 + 2 * 8) = 1,700 step and target sight-line rows.
ROWS_PER_REALIZATION_MAX = 10**7


def _clutter_fits(lambda_fa: float, t_steps: int) -> list[str]:
    if (expected := lambda_fa * t_steps) <= ROWS_PER_REALIZATION_MAX:
        return []
    return [
        f"scenario.lambda_fa: lambda_fa * t_steps, the expected clutter detections per"
        f" realization, must be <= {ROWS_PER_REALIZATION_MAX}, got {expected!r}"
    ]


def _sight_lines_fit(se_poses: tuple[Pose, ...], n_targets: int, t_steps: int) -> list[str]:
    if (rows := t_steps * (1 + len(se_poses) * n_targets)) <= ROWS_PER_REALIZATION_MAX:
        return []
    return [
        f"scenario.t_steps: t_steps * (1 + len(se_poses) * n_targets), the step and target"
        f" sight-line rows per realization, must be <= {ROWS_PER_REALIZATION_MAX}, got {rows}"
    ]


_CROSS_CHECKS = (
    # section, keys read, check
    ("scenario", ("bounds", "buildings"), _map_fits),
    ("scenario", ("lambda_fa", "t_steps"), _clutter_fits),
    ("scenario", ("se_poses", "n_targets", "t_steps"), _sight_lines_fit),
    ("sweep", ("g_min", "g_max", "g_step", "g_values"), _grid_fits),
)


def parse_config(raw: dict) -> AppConfig:
    problems = [f"{key}: unknown section" for key in raw if key not in KEYS]
    values: dict[str, dict[str, Any]] = {}
    for section, rows in KEYS.items():
        given = raw.get(section) or {}
        if not isinstance(given, dict):
            problems.append(f"{section}: expected a mapping")
            given = {}
        problems += [f"{section}.{key}: unknown key" for key in given if key not in rows]
        parsed = values[section] = {}
        for key, (kind, default, check) in rows.items():
            value, found = kind(given[key], f"{section}.{key}") if key in given else (default, [])
            if not found and check is not None and (message := check(value)) is not None:
                found = [f"{section}.{key}: {message}"]
            problems += found
            if not found:
                parsed[key] = value
        for cross_section, keys, cross_check in _CROSS_CHECKS:
            if cross_section == section and all(key in parsed for key in keys):
                problems += cross_check(*(parsed[key] for key in keys))
    if problems:
        raise ConfigError(problems)
    sc, sw, demo = values["scenario"], values["sweep"], values["demo"]
    del demo["requester_kind"]  # no DemoSettings field
    return AppConfig(
        scenario=ScenarioConfig(
            bounds=sc["bounds"],
            static_map=StaticMap(sc["buildings"], sc["bounds"]),
            noise=NoiseModel(sc["sigma_r"], math.radians(sc["sigma_beta_deg"])),
            clutter=ClutterModel(sc["lambda_fa"], sc["edge_fraction"], sc["edge_jitter_sigma"]),
            **{key: sc[key] for key in ("se_poses", "p_det", "n_targets", "t_steps", "seed")},
        ),
        sweep=SweepSettings(
            g_values=sw["g_values"] or default_g_values(sw["g_min"], sw["g_max"], sw["g_step"]),
            g_det_values=sw["g_det_values"],
            n_realizations=sw["n_realizations"],
            include_baseline=sw["baseline"],
        ),
        demo=DemoSettings(**demo),
    )
