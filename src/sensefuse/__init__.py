"""Map-aware sensing fusion simulator and sensing-service call flow."""

from .errors import (
    ConfigError,
    DegenerateGeometryError,
    EmptyRunError,
    NoSensingEntityError,
    ProtocolError,
    StoreCorruptError,
)
from .fusion import FilterConfig
from .geometry import Rect, StaticMap, WorldPoint
from .measurement import Cov2, DetectionColumns, NoiseModel, Pose, WorldDetection
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
    "Cov2",
    "DegenerateGeometryError",
    "DetectionColumns",
    "EmptyRunError",
    "FilterConfig",
    "Frame",
    "MetricResult",
    "NoSensingEntityError",
    "NoiseModel",
    "Pose",
    "ProtocolError",
    "Rect",
    "Scenario",
    "ScenarioConfig",
    "SdsfStore",
    "SensingContext",
    "SensingRecord",
    "StaticMap",
    "StoreCorruptError",
    "TargetTrack",
    "WorldDetection",
    "WorldPoint",
    "build_scenario",
    "generate_frames",
    "realization_rng",
    "__version__",
]
