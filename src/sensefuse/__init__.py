"""Map-aware sensing fusion simulator and sensing-service call flow."""

from .errors import (
    ConfigError,
    DegenerateGeometryError,
    EmptyRunError,
    StoreCorruptError,
)
from .fusion import FilterConfig
from .geometry import Rect, StaticMap, WorldPoint
from .measurement import DetectionColumns, NoiseModel, Pose
from .metrics import MetricResult
from .scenario import (
    ClutterModel,
    Frame,
    Scenario,
    ScenarioConfig,
    TargetTrack,
    build_scenario,
    generate_frames,
    realization_rng,
)
from .sdsf_store import Availability, SdsfStore, SensingContext, SensingRecord

__version__ = "0.1.0"

__all__ = [
    "Availability",
    "ClutterModel",
    "ConfigError",
    "DegenerateGeometryError",
    "DetectionColumns",
    "EmptyRunError",
    "FilterConfig",
    "Frame",
    "MetricResult",
    "NoiseModel",
    "Pose",
    "Rect",
    "Scenario",
    "ScenarioConfig",
    "SdsfStore",
    "SensingContext",
    "SensingRecord",
    "StaticMap",
    "StoreCorruptError",
    "TargetTrack",
    "WorldPoint",
    "build_scenario",
    "generate_frames",
    "realization_rng",
    "__version__",
]
