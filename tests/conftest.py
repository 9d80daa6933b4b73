import math
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from sensefuse.geometry import Rect, StaticMap
from sensefuse.harness import BASELINE_G, CSV_HEADER, SweepRow
from sensefuse.measurement import DetectionColumns
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


def columns_of(
    points: Sequence[tuple[float, float]],
    sources: Sequence[str] | None = None,
    clutter: Sequence[bool] | None = None,
) -> DetectionColumns:
    """Detections at ``points``, as one columnar batch.

    ``sources`` names each row's SE (default ``se-0``), kept as SE ids in
    first-seen order; ``clutter`` flags rows (default none).
    """
    n = len(points)
    sources = ["se-0"] * n if sources is None else list(sources)
    se_ids = tuple(dict.fromkeys(sources))
    return DetectionColumns(
        xy=np.array(points, dtype=float).reshape(-1, 2),
        se_idx=np.array([se_ids.index(s) for s in sources], dtype=np.intp),
        se_ids=se_ids,
        is_clutter=np.zeros(n, dtype=bool) if clutter is None else np.array(clutter, dtype=bool),
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
        for x, y in frame.detections.xy.tolist():
            d2 = min((_hand_rect_d2(x, y, r) for r in static_map.rects), default=math.inf)
            if not (fc.mask_enabled and d2 <= fc.mask_margin_g * fc.mask_margin_g):
                kept.append((x, y))
        gate2 = fc.gate_g_det * fc.gate_g_det
        for tid, pos in frame.truth:
            steps[tid] = steps.get(tid, 0) + 1
            hit = any((x - pos.x) ** 2 + (y - pos.y) ** 2 <= gate2 for x, y in kept)
            successes[tid] = successes.get(tid, 0) + (1 if hit else 0)
        for x, y in kept:
            if not any((x - pos.x) ** 2 + (y - pos.y) ** 2 <= gate2 for _, pos in frame.truth):
                fa_total += 1
    ids = sorted(steps)
    pd = {tid: successes[tid] / steps[tid] for tid in ids}
    pd_avg = float(np.mean([pd[tid] for tid in ids])) if pd else math.nan
    return pd, pd_avg, fa_total / len(frames)


# -- sweep CSV ---------------------------------------------------------------------


def read_csv(path: str | Path) -> list[SweepRow]:
    with Path(path).open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != 7:
                raise ValueError(f"{path}: malformed row {line!r}")
            rows.append(
                SweepRow(
                    g=float(parts[0]),
                    g_det=float(parts[1]),
                    pd_mean=float(parts[2]),
                    pd_std=float(parts[3]),
                    fa_mean=float(parts[4]),
                    fa_std=float(parts[5]),
                    n=int(parts[6]),
                )
            )
    return rows


def baseline_row(rows: list[SweepRow], g_det: float) -> SweepRow:
    """The mask-disabled row for a gate value."""
    for r in rows:
        if r.g == BASELINE_G and r.g_det == g_det:
            return r
    raise ValueError(f"no baseline row for g_det={g_det}")


def cell_row(rows: list[SweepRow], g: float, g_det: float) -> SweepRow:
    for r in rows:
        if r.g == g and r.g_det == g_det:
            return r
    raise ValueError(f"no row for g={g}, g_det={g_det}")
