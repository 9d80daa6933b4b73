"""The package's public surface and its separation from the test oracles."""
import ast
import importlib
from pathlib import Path

import pytest

import sensefuse

SRC = Path(sensefuse.__file__).parent

# Scalar reference code that lives in tests/oracles.py, and names deleted
# because only their own tests called them, each with its defining module.
MOVED_OR_DELETED = [
    ("measurement", "PolarMeasurement"),
    ("measurement", "polar_to_world"),
    ("measurement", "world_to_polar"),
    ("measurement", "sample_measurement"),
    ("measurement", "sample_measurements"),
    ("measurement", "rotated_covariance"),
    ("measurement", "world_covariance"),
    ("measurement", "build_detection"),
    ("measurement", "propagate_covariance"),
    ("measurement", "Cov2.from_matrix"),
    ("scenario", "generate_frame"),
    ("fusion", "precompute_distances"),
    ("geometry", "rect_distance_sq"),
    ("geometry", "rect_distance"),
    ("geometry", "StaticMap.min_distance_sq"),
    ("geometry", "StaticMap.min_distance"),
    ("geometry", "in_dilated_map"),
    ("callflow", "read_trace"),
    ("sdsf_store", "SdsfStore.get"),
    ("callflow", "StorageItem"),
    ("callflow", "SeReport.buffered"),
    ("callflow", "SeReport.buffered_epoch"),
    ("metrics", "aggregate"),
    ("scenario", "target_position"),
    ("scenario", "generate_clutter"),
    ("geometry", "Rect.contains"),
    ("measurement", "Cov2.matrix"),
    ("harness", "read_csv"),
    ("harness", "baseline_row"),
    ("harness", "cell_row"),
    ("harness", "SweepRow.is_baseline"),
    ("measurement", "Cov2"),
    ("measurement", "WorldDetection"),
    ("measurement", "DetectionColumns.detections"),
    ("metrics", "result_from_counts"),
    ("callflow", "ServiceRequest.requester_kind"),
    ("config", "DemoSettings.requester_kind"),
    ("config", "DemoSettings.charging_rules"),
    ("callflow", "PolicyRules.charging_rules"),
    ("callflow", "PolicyDecision.obligations"),
    ("callflow", "SensingFunction.revoke_consent"),
    ("measurement", "DetectionColumns.cov"),
    ("scenario", "Realization.range_m"),
    ("scenario", "Realization.bearing"),
    ("measurement", "PSD_SLACK"),
    ("callflow", "Message"),
    ("callflow", "MessageBus"),
    ("callflow", "SeReport"),
    ("callflow", "SensingWorld"),
    ("callflow", "SensingEntity"),
    ("callflow", "PolicyControl"),
    ("callflow", "SdsfFrontend"),
    ("callflow", "ServiceConsumer"),
    ("callflow", "SfPhase"),
    ("callflow", "SensingFunction"),
    ("callflow", "CallFlowRun.phases"),
    ("errors", "ProtocolError"),
    ("errors", "NoSensingEntityError"),
    ("sdsf_store", "SensingContext.conditions"),
    ("sdsf_store", "SensingContext.key"),
    ("sdsf_store", "SensingRecord.metadata"),
    ("sdsf_store", "SensingRecord.age"),
    ("sdsf_store", "RECORD_KINDS"),
    ("callflow", "Kpi"),
    ("callflow", "ServiceRequest"),
    ("callflow", "PolicyRules"),
    ("callflow", "PolicyDecision"),
    ("callflow", "Stid"),
    ("callflow", "evaluate_policy"),
    ("callflow", "run_sensing_task"),
    ("callflow", "SensingResult.stid"),
    ("fusion", "fused_metrics"),
    ("metrics", "AggregateStats"),
    ("metrics", "aggregate_values"),
    ("fusion", "FilterConfig"),
    ("fusion", "grid_metrics"),
    ("scenario", "_ClutterSampler"),
]


@pytest.mark.parametrize("module, name", MOVED_OR_DELETED)
def test_moved_or_deleted_name_is_unreachable(module, name):
    owner_name, _, attr = name.rpartition(".")
    for holder in (sensefuse, importlib.import_module(f"sensefuse.{module}")):
        owner = getattr(holder, owner_name, None) if owner_name else holder
        # A dataclass field without a default is no class attribute.
        fields = getattr(owner, "__dataclass_fields__", {})
        assert not hasattr(owner, attr) and attr not in fields, (
            f"{name} is reachable from {holder.__name__}"
        )
    assert name not in sensefuse.__all__


def test_every_public_name_resolves():
    missing = [name for name in sensefuse.__all__ if not hasattr(sensefuse, name)]
    assert missing == []


def test_no_package_module_imports_from_the_tests():
    test_modules = {p.stem for p in Path(__file__).parent.glob("*.py")} | {"tests"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {r}" for r in roots if r in test_modules]
    assert offenders == []
