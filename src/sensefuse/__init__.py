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
from .geometry import Rect, StaticMap, WorldPoint, in_dilated_map
from .measurement import (
    Cov2,
    DetectionColumns,
    NoiseModel,
    PolarMeasurement,
    Pose,
    WorldDetection,
    build_detection,
    polar_to_world,
    propagate_covariance,
    world_covariance,
    world_to_polar,
)
from .metrics import MetricResult, aggregate
from .scenario import (
    ClutterModel,
    Frame,
    Scenario,
    ScenarioConfig,
    TargetTrack,
    build_scenario,
    generate_frame,
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
    "PolarMeasurement",
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
    "aggregate",
    "build_detection",
    "build_scenario",
    "generate_frame",
    "generate_frames",
    "in_dilated_map",
    "polar_to_world",
    "propagate_covariance",
    "realization_rng",
    "world_covariance",
    "world_to_polar",
    "__version__",
]
