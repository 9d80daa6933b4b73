import math

import numpy as np
import pytest

from sensefuse.geometry import Rect, StaticMap, WorldPoint
from sensefuse.measurement import Cov2, DetectionColumns, WorldDetection
from sensefuse.scenario import Scenario, ScenarioConfig, build_scenario
from sensefuse.sdsf_store import SdsfStore, SensingRecord


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def default_scenario() -> Scenario:
    return build_scenario(ScenarioConfig())


@pytest.fixture
def unit_map() -> StaticMap:
    return StaticMap((Rect(0.0, 0.0, 10.0, 10.0),), Rect(-50.0, -50.0, 50.0, 50.0))


def make_detection(
    x: float, y: float, source_se: str = "se-0", is_clutter_truth: bool = False
) -> WorldDetection:
    return WorldDetection(
        point=WorldPoint(x, y),
        cov=Cov2(1.0, 0.0, 1.0),
        source_se=source_se,
        is_clutter_truth=is_clutter_truth,
    )


def columns_of(detections: list[WorldDetection]) -> DetectionColumns:
    """The same detections as one columnar batch, SE ids in first-seen order."""
    se_ids = tuple(dict.fromkeys(d.source_se for d in detections))
    return DetectionColumns(
        xy=np.array([(d.point.x, d.point.y) for d in detections]).reshape(-1, 2),
        cov=np.array([(d.cov.xx, d.cov.xy, d.cov.yy) for d in detections]).reshape(-1, 3),
        se_idx=np.array([se_ids.index(d.source_se) for d in detections], dtype=np.intp),
        se_ids=se_ids,
        is_clutter=np.array([d.is_clutter_truth for d in detections], dtype=bool),
    )


def live_record(store: SdsfStore, record_id: str) -> SensingRecord | None:
    """The store's record ``record_id`` unless it is missing or expired."""
    record = store._records.get(record_id)
    return None if record is None or record.expired(store.now) else record


def _hand_rect_d2(x: float, y: float, rect: Rect) -> float:
    dx = max(rect.x_min - x, 0.0, x - rect.x_max)
    dy = max(rect.y_min - y, 0.0, y - rect.y_max)
    return dx * dx + dy * dy


def brute_force_metrics(frames, static_map, fc):
    """Independent reimplementation of mask, gate, and metric counting."""
    successes: dict[int, int] = {}
    steps: dict[int, int] = {}
    fa_total = 0
    for frame in frames:
        kept = []
        for det in frame.detections:
            d2 = min(
                (_hand_rect_d2(det.point.x, det.point.y, r) for r in static_map.rects),
                default=math.inf,
            )
            if not (fc.mask_enabled and d2 <= fc.mask_margin_g * fc.mask_margin_g):
                kept.append(det)
        gate2 = fc.gate_g_det * fc.gate_g_det
        for tid, pos in frame.truth:
            steps[tid] = steps.get(tid, 0) + 1
            hit = any(
                (d.point.x - pos.x) ** 2 + (d.point.y - pos.y) ** 2 <= gate2 for d in kept
            )
            successes[tid] = successes.get(tid, 0) + (1 if hit else 0)
        for d in kept:
            if not any(
                (d.point.x - pos.x) ** 2 + (d.point.y - pos.y) ** 2 <= gate2
                for _, pos in frame.truth
            ):
                fa_total += 1
    ids = sorted(steps)
    pd = {tid: successes[tid] / steps[tid] for tid in ids}
    pd_avg = float(np.mean([pd[tid] for tid in ids])) if pd else math.nan
    return pd, pd_avg, fa_total / len(frames)
