import base64
import dataclasses
import json
import math
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensefuse.callflow import run_call_flow
from sensefuse.cli import main
from sensefuse.config import parse_config
from sensefuse.errors import StoreCorruptError
from sensefuse.geometry import Rect, StaticMap
from sensefuse.harness import demo_callflow
from sensefuse.measurement import DetectionColumns
from sensefuse.metrics import MetricResult
from sensefuse.scenario import (
    ScenarioConfig,
    build_scenario,
    generate_realization,
    realization_detections,
    realization_rng,
)
from sensefuse.sdsf_store import (
    LOG_MAGIC,
    Availability,
    SdsfStore,
    SensingContext,
    _record_from_json,
    availability,
)

import oracles
from conftest import columns_of, live_record

AREA = Rect(0.0, 0.0, 120.0, 120.0)
FIXTURE = Path(__file__).parent / "data" / "pre-cov-drop.store"
TRIMMED_FIXTURE = Path(__file__).parent / "data" / "pre-schema-trim.store"
LIST_COLUMNS_FIXTURE = Path(__file__).parent / "data" / "pre-compact-raw.store"


def ctx(area: Rect = AREA, window: tuple[int, int] = (0, 100), target_type: str = "vehicle"):
    return SensingContext(area=area, time_window=window, target_type=target_type)


def demo_map(area: Rect = AREA) -> StaticMap:
    building = Rect(
        area.x_min + 0.25 * area.width,
        area.y_min + 0.25 * area.height,
        area.x_min + 0.5 * area.width,
        area.y_min + 0.5 * area.height,
    )
    return StaticMap((building,), area)


def metrics_payload() -> MetricResult:
    return MetricResult(pd_per_target={0: 0.9}, pd_avg=0.9, fa_avg=1.5)


# -- context and availability types ---------------------------------------------


def test_context_validation():
    with pytest.raises(ValueError):
        ctx(window=(10, 5))
    with pytest.raises(ValueError):
        ctx(target_type="starship")


def test_contexts_equal_in_value_are_equal_and_hash_equal():
    # Areas equal as numbers, with coordinates of another type or sign.
    a = ctx(area=Rect(0.0, 0.0, 120.0, 120.0))
    b = ctx(area=Rect(-0.0, 0, 120, 120.0))
    assert a == b and hash(a) == hash(b)


def test_availability_invariants():
    with pytest.raises(ValueError):
        Availability(status="exists", missing_portions=(ctx(),))
    with pytest.raises(ValueError):
        Availability(status="total")


# -- store write path -------------------------------------------------------------


def test_store_and_get_round_trip():
    store = SdsfStore()
    rid = store.store("stid-1", ctx(), demo_map(), created_at=0, aging_policy=50)
    record = live_record(store, rid)
    assert record is not None
    assert record.stid == "stid-1"
    assert record.kind == "processed"
    assert record.payload == demo_map()


def test_same_context_different_kinds_are_distinct_records():
    store = SdsfStore()
    rid1 = store.store("stid-1", ctx(), demo_map(), 0, 50)
    rid2 = store.store("stid-1", ctx(), metrics_payload(), 0, 50)
    assert rid1 != rid2
    assert len(store) == 2


def test_store_rejects_future_created_at():
    store = SdsfStore()
    with pytest.raises(ValueError, match="future"):
        store.store("stid-1", ctx(), demo_map(), created_at=5, aging_policy=50)


def test_store_rejects_unsupported_payload_and_bad_fields():
    store = SdsfStore()
    with pytest.raises(ValueError, match="unsupported payload"):
        store.store("stid-1", ctx(), "not a payload", 0, 50)
    with pytest.raises(ValueError, match="stid"):
        store.store("", ctx(), demo_map(), 0, 50)
    with pytest.raises(ValueError, match="aging_policy"):
        store.store("stid-1", ctx(), demo_map(), 0, -1)
    for excluded in ((1.5,), (True,), (-(2**63) - 1,)):
        metrics = MetricResult({0: 0.9}, 0.9, 1.5, excluded_targets=excluded)
        with pytest.raises(ValueError, match="excluded_targets must be integers within int64"):
            store.store("stid-1", ctx(), metrics, 0, 50)
    assert len(store) == 0


def test_detection_list_is_raw_kind():
    store = SdsfStore()
    rid = store.store("stid-1", ctx(), columns_of([(1.0, 2.0)]), 0, 50)
    record = live_record(store, rid)
    assert record is not None and record.kind == "raw"


# -- availability ------------------------------------------------------------------


def available(store: SdsfStore, request: SensingContext):
    return availability(request, store.fetch(request))


def test_availability_empty_store_is_missing():
    store = SdsfStore()
    result = available(store, ctx())
    assert result.status == "missing"
    assert result.missing_portions == (ctx(),)


def test_availability_full_cover_is_exists():
    store = SdsfStore()
    store.store("stid-1", ctx(window=(0, 200)), demo_map(), 0, 1000)
    result = available(store, ctx(window=(10, 90)))
    assert result.status == "exists"


def test_availability_spatial_partial_reports_both_portions():
    store = SdsfStore()
    west = Rect(0.0, 0.0, 60.0, 120.0)
    store.store("stid-1", ctx(area=west), demo_map(west), 0, 1000)
    result = available(store, ctx())
    assert result.status == "partial"
    assert [c.area for c in result.missing_portions] == [Rect(60.0, 0.0, 120.0, 120.0)]


def test_availability_temporal_partial():
    store = SdsfStore()
    store.store("stid-1", ctx(window=(0, 50)), demo_map(), 0, 1000)
    result = available(store, ctx(window=(0, 100)))
    assert result.status == "partial"
    assert [c.time_window for c in result.missing_portions] == [(51, 100)]


def test_availability_type_matching():
    store = SdsfStore()
    store.store("stid-1", ctx(target_type="unknown"), demo_map(), 0, 1000)
    # Type-agnostic stored data satisfies a vehicle request, not vice versa.
    assert available(store, ctx(target_type="vehicle")).status == "exists"
    store2 = SdsfStore()
    store2.store("stid-1", ctx(target_type="pedestrian"), demo_map(), 0, 1000)
    assert available(store2, ctx(target_type="vehicle")).status == "missing"


def test_availability_ignores_expired_records():
    store = SdsfStore()
    store.store("stid-1", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(11)
    assert available(store, ctx()).status == "missing"


# -- fetch and aging ---------------------------------------------------------------


def test_fetch_age_bound_is_inclusive():
    store = SdsfStore()
    store.store("stid-1", ctx(), demo_map(), 0, 1000)
    store.set_now(5)
    assert len(store.fetch(ctx(), max_age=5)) == 1
    store.set_now(10)
    assert store.fetch(ctx(), max_age=5) == []


def test_fetch_filters_stale_and_orders_newest_first():
    store = SdsfStore()
    store.store("stid-1", ctx(), demo_map(), 0, 1000)
    store.set_now(80)
    store.store("stid-2", ctx(), demo_map(), 80, 1000)
    fresh = store.fetch(ctx(), max_age=30)
    assert [r.stid for r in fresh] == ["stid-2"]
    both = store.fetch(ctx())
    assert [r.stid for r in both] == ["stid-2", "stid-1"]


def test_fetch_never_returns_self_expired_records():
    store = SdsfStore()
    store.store("stid-1", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(20)
    assert store.fetch(ctx()) == []


def test_get_expired_returns_none():
    store = SdsfStore()
    rid = store.store("stid-1", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(11)
    assert live_record(store, rid) is None


def test_apply_aging_removes_and_is_idempotent():
    store = SdsfStore()
    store.store("stid-1", ctx(), demo_map(), 0, aging_policy=100)
    assert store.apply_aging(100) == 0  # age 100 is not past a policy of 100
    assert store.apply_aging(101) == 1
    assert store.apply_aging(101) == 0
    assert len(store) == 0


def test_aged_out_record_can_be_stored_again():
    store = SdsfStore()
    rid1 = store.store("stid-1", ctx(), demo_map(), 0, aging_policy=10)
    store.apply_aging(50)
    rid2 = store.store("stid-1", ctx(), demo_map(), 50, aging_policy=10)
    assert rid1 != rid2


def test_clock_cannot_move_backwards():
    store = SdsfStore()
    store.set_now(10)
    with pytest.raises(ValueError, match="backwards"):
        store.set_now(9)


# -- persistence -------------------------------------------------------------------


def test_log_round_trip_restores_records_and_clock(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    store.store("stid-1", ctx(), demo_map(), 0, 1000)
    store.set_now(30)
    store.store("stid-2", ctx(window=(0, 30)), metrics_payload(), 30, 1000)
    store.store("stid-3", ctx(), columns_of([(1.0, 2.0)]), 30, 1000)

    reloaded = SdsfStore(path)
    assert len(reloaded) == 3
    assert reloaded.now == 30
    for rid in ("rec-000001", "rec-000002", "rec-000003"):
        assert live_record(reloaded, rid) == live_record(store, rid)
    # Fresh ids continue after the persisted ones.
    rid = reloaded.store("stid-4", ctx(), demo_map(), 30, 1000)
    assert rid == "rec-000004"


def test_reload_ages_out_stale_records(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    store.store("stid-1", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(50)
    store.store("stid-2", ctx(), demo_map(), 50, aging_policy=100)
    reloaded = SdsfStore(path)
    assert [r.stid for r in reloaded.fetch(ctx())] == ["stid-2"]


def test_empty_log_file_is_a_fresh_store(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text("")
    store = SdsfStore(path)
    assert len(store) == 0 and store.now == 0


def test_bad_magic_and_version_are_rejected(tmp_path):
    bad_magic = tmp_path / "bad_magic.jsonl"
    bad_magic.write_text(json.dumps({"magic": "something-else", "version": 1}) + "\n")
    with pytest.raises(ValueError, match="bad magic"):
        SdsfStore(bad_magic)

    bad_version = tmp_path / "bad_version.jsonl"
    bad_version.write_text(json.dumps({"magic": LOG_MAGIC, "version": 999}) + "\n")
    with pytest.raises(ValueError, match="version"):
        SdsfStore(bad_version)


# -- corrupt logs ------------------------------------------------------------------


def _two_record_log(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    store.store("stid-1", ctx(), demo_map(), 0, 1000)
    store.store("stid-1", ctx(), metrics_payload(), 0, 1000)
    return path


def test_torn_last_line_raises_store_corrupt_error(tmp_path):
    # When the torn last line is the header, there is no prefix to keep.
    path = _two_record_log(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: data.index(b"\n") - 5])
    with pytest.raises(StoreCorruptError, match=r"store\.jsonl:1: torn header") as err:
        SdsfStore(path)
    assert err.value.lineno == 1


def test_duplicate_record_id_raises_store_corrupt_error(tmp_path):
    # One writer numbers its records uniquely; two lines under one id mean the
    # log was edited or interleaved, and replay would keep only the second.
    path = tmp_path / "store.jsonl"
    path.write_text(
        '{"magic":"sensefuse-sdsf-log","version":1}\n'
        '{"aging_policy":1000,"context":{"area":[0.0,0.0,10.0,10.0],"target_type":"unknown",'
        '"time_window":[0,5]},"created_at":0,"payload":{"bounds":[0.0,0.0,10.0,10.0],'
        '"rects":[],"type":"static_map"},"record_id":"rec-000001","stid":"stid-1"}\n'
        '{"aging_policy":1000,"context":{"area":[0.0,0.0,10.0,10.0],"target_type":"unknown",'
        '"time_window":[0,5]},"created_at":0,"payload":{"bounds":[0.0,0.0,10.0,10.0],'
        '"rects":[],"type":"static_map"},"record_id":"rec-000001","stid":"stid-2"}\n'
    )
    with pytest.raises(
        StoreCorruptError,
        match=r"store\.jsonl:3: duplicate record_id 'rec-000001', first on line 2$",
    ) as err:
        SdsfStore(path)
    assert err.value.lineno == 3
    # Without the second line the log replays.
    path.write_bytes(b"".join(_lines(path)[:2]))
    assert list(SdsfStore(path)._records) == ["rec-000001"]


def test_torn_last_line_is_dropped_and_cut_by_the_next_append(tmp_path, caplog):
    path = _two_record_log(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    store = SdsfStore(path)
    assert sorted(store._records) == ["rec-000001"]
    assert [r.getMessage() for r in caplog.records] == [f"{path}:3: dropped a torn final line"]
    store.store("stid-2", ctx(), metrics_payload(), 0, 1000)
    lines = _lines(path)
    assert b"".join(lines[:2]) == data[: data.index(b"\n", data.index(b"\n") + 1) + 1]
    assert len(lines) == 3 and json.loads(lines[2])["stid"] == "stid-2"
    assert sorted(SdsfStore(path)._records) == ["rec-000001", "rec-000002"]
    assert len(caplog.records) == 1


def _reopen_after_cut(path, data: bytes, cut: int, expected: dict) -> None:
    """Reopen ``data[:cut]``: its complete lines' records, then one more appended."""
    path.write_bytes(data[:cut])
    header_end = data.index(b"\n") + 1
    if 0 < cut < header_end:
        with pytest.raises(StoreCorruptError, match=r":1: torn header"):
            SdsfStore(path)
        return
    complete = data[:cut].count(b"\n") - 1
    prefix = dict(list(expected.items())[: max(complete, 0)])
    store = SdsfStore(path)
    assert store._records == prefix, cut
    record_id = store.store("stid-9", ctx(window=(0, 7)), demo_map(), 0, 1000)
    reopened = SdsfStore(path)._records
    assert list(reopened) == [*prefix, record_id], cut
    assert reopened[record_id].stid == "stid-9" and path.read_bytes().endswith(b"\n")


def test_log_cut_at_any_byte_reopens_to_its_complete_lines(tmp_path):
    path = _two_record_log(tmp_path)
    data = path.read_bytes()
    expected = SdsfStore(path)._records
    cuts = tmp_path / "cut.jsonl"
    for cut in range(len(data) + 1):
        _reopen_after_cut(cuts, data, cut, expected)


def test_raw_line_cut_inside_reopens_to_the_lines_before_it(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    store.store("stid-1", ctx(), demo_map(), 0, 1000)
    store.store("stid-1", ctx(), columns_of([(1.0, 2.0), (3.5, -4.0), (0.1, 0.2)]), 0, 50)
    data = path.read_bytes()
    expected = SdsfStore(path)._records
    raw_start = data.index(b"\n", data.index(b"\n") + 1) + 1
    cuts = tmp_path / "cut.jsonl"
    for cut in (raw_start + 1, raw_start + 40, (raw_start + len(data)) // 2, len(data) - 1):
        _reopen_after_cut(cuts, data, cut, expected)


@pytest.mark.parametrize("content", [b"garbage\n", b"\xff\xfegarbage\n"], ids=["text", "binary"])
def test_garbage_file_raises_store_corrupt_error(tmp_path, content):
    path = tmp_path / "garbage.jsonl"
    path.write_bytes(content)
    with pytest.raises(StoreCorruptError, match=r"garbage\.jsonl:1: .*bad magic"):
        SdsfStore(path)


def test_record_missing_fields_raises_store_corrupt_error(tmp_path):
    path = _two_record_log(tmp_path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"record_id": "rec-000003"}) + "\n")
    with pytest.raises(StoreCorruptError, match=r":4: bad record"):
        SdsfStore(path)


# -- raw detection records ------------------------------------------------------------


def raw_payload() -> DetectionColumns:
    scenario = build_scenario(ScenarioConfig(t_steps=5, seed=3))
    rz = generate_realization(scenario, realization_rng(3, 0))
    rows = np.random.default_rng(0).permutation(len(rz.xy))
    return realization_detections(scenario, rz, rows)


def _lines(path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def test_list_payload_is_rejected():
    store = SdsfStore()
    with pytest.raises(ValueError, match="unsupported payload type list"):
        store.store("stid-1", ctx(), [(1.0, 2.0)], 0, 50)


# Every class of double whose shortest spelling differs between formatters:
# both zeros, subnormals, the neighbours of 1e-4 and 1e16 (where repr switches
# to exponent form and orjson does not) and the largest finite values.
_EDGE_FLOATS = [
    0.0,
    5e-324,
    math.nextafter(2.2250738585072014e-308, 0.0),
    2.2250738585072014e-308,
    math.nextafter(1e-4, 0.0),
    1e-4,
    math.nextafter(1e-4, 1.0),
    math.nextafter(1e16, 0.0),
    1e16,
    math.nextafter(1e16, math.inf),
    1e308,
    math.nextafter(math.inf, 0.0),
]


def _floats(limit: float) -> st.SearchStrategy[float]:
    """Finite floats of magnitude up to ``limit``, edge cases and [1e-6, 1e18] weighted up."""
    edges = [v for v in _EDGE_FLOATS if v <= limit]
    return st.one_of(
        st.sampled_from(edges + [-v for v in edges]),
        st.floats(min_value=-limit, max_value=limit),
        st.floats(min_value=1e-6, max_value=1e18),
    )


@st.composite
def _columns(draw) -> DetectionColumns:
    se_ids = draw(
        st.lists(
            st.text(
                st.sampled_from('se-0"\\é€😀') | st.characters(codec="utf-8"), max_size=6
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    n = draw(st.integers(0, 50))
    position = st.tuples(_floats(sys.float_info.max), _floats(sys.float_info.max))
    return DetectionColumns(
        xy=np.array(draw(st.lists(position, min_size=n, max_size=n))).reshape(n, 2),
        se_idx=np.array(draw(st.lists(st.integers(0, len(se_ids) - 1), min_size=n, max_size=n))),
        se_ids=tuple(se_ids),
        is_clutter=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
    )


# Every float class of ``_columns``, and a generated batch of realistic size.
@settings(max_examples=100, deadline=None)
@given(payload=_columns())
@example(payload=raw_payload())
def test_raw_record_round_trips_as_columns(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("raw") / "store.jsonl"
    SdsfStore(path).store("stid-1", ctx(), payload, 0, 50)

    record = live_record(SdsfStore(path), "rec-000001")
    assert record is not None and record.kind == "raw"
    assert isinstance(record.payload, DetectionColumns)
    assert record.payload == payload
    assert record.payload.xy.tobytes() == payload.xy.tobytes()
    assert record.payload.sources() == payload.sources()
    assert record.payload.is_clutter.tolist() == payload.is_clutter.tolist()

    again = path.with_name("again.jsonl")
    SdsfStore(again).store(
        record.stid, record.context, record.payload, record.created_at, record.aging_policy
    )
    assert again.read_bytes() == path.read_bytes()


def _compact_xy(pairs: list) -> str:
    """Positions as the compact form spells them: base64 of little-endian float64 x, y rows."""
    flat = [v for pair in pairs for v in pair]
    return base64.b64encode(struct.pack("<%dd" % len(flat), *flat)).decode()


def _compact_clutter(flags: list[bool]) -> str:
    """Clutter flags as the compact form spells them: base64 of bits packed MSB first."""
    packed = bytearray((len(flags) + 7) // 8)
    for i, flag in enumerate(flags):
        if flag:
            packed[i // 8] |= 0x80 >> (i % 8)
    return base64.b64encode(bytes(packed)).decode()


def _raw_line_spec(payload: DetectionColumns, compact: bool = True) -> dict:
    """The raw record's JSON form, with its columns compact or as the JSON lists of older logs."""
    xy, clutter = payload.xy.tolist(), payload.is_clutter.tolist()
    return {
        "record_id": "rec-000001",
        "stid": "stid-1",
        "context": {
            "area": list(AREA.as_tuple()),
            "time_window": [0, 100],
            "target_type": "vehicle",
        },
        "payload": {
            "type": "detections",
            "se_ids": list(payload.se_ids),
            "se_idx": payload.se_idx.tolist(),
            "xy": _compact_xy(xy) if compact else xy,
            "clutter": _compact_clutter(clutter) if compact else clutter,
        },
        "created_at": 0,
        "aging_policy": 50,
    }


# Positions travel as their bytes, so the line is compared byte for byte with
# ``json.dumps`` of the compact form; the only floats left in it are the area's.
@settings(max_examples=100, deadline=None)
@given(payload=_columns())
def test_raw_record_line_is_json_dumps_for_every_float_class(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("raw") / "store.jsonl"
    SdsfStore(path).store("stid-1", ctx(), payload, 0, 50)
    spec = json.dumps(
        _raw_line_spec(payload), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    assert _lines(path)[1] == spec.encode() + b"\n"

    record = live_record(SdsfStore(path), "rec-000001")
    assert record is not None and record.payload == payload
    assert record.payload.xy.tobytes() == payload.xy.tobytes()


# The JSON-list columns of older logs are read, never written: a line of that
# form, as ``json.dumps`` spells every float class, replays bit for bit.
@settings(max_examples=100, deadline=None)
@given(payload=_columns())
def test_list_column_raw_line_replays_for_every_float_class(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("raw") / "store.jsonl"
    header = {"magic": LOG_MAGIC, "version": 1}
    line = json.dumps(_raw_line_spec(payload, compact=False), sort_keys=True)
    path.write_text(f"{json.dumps(header)}\n{line}\n", encoding="utf-8")

    record = live_record(SdsfStore(path), "rec-000001")
    assert record is not None and record.payload == payload
    assert record.payload.xy.tobytes() == payload.xy.tobytes()
    assert record.payload.is_clutter.tolist() == payload.is_clutter.tolist()


def test_empty_raw_record_round_trips(tmp_path):
    path = tmp_path / "store.jsonl"
    SdsfStore(path).store("stid-1", ctx(), columns_of([]), 0, 50)
    record = live_record(SdsfStore(path), "rec-000001")
    assert record is not None and len(record.payload) == 0
    assert json.loads(_lines(path)[1])["payload"] == {
        "clutter": "",
        "se_ids": [],
        "se_idx": [],
        "type": "detections",
        "xy": "",
    }
    # The empty list-column form of older logs replays to the same record.
    empty_lists = {"clutter": [], "se_ids": [], "se_idx": [], "xy": []}
    lists = _raw_log(tmp_path / "lists.jsonl", empty_lists)
    assert lists is not None and lists.payload == record.payload
    assert lists.payload.xy.tobytes() == record.payload.xy.tobytes() == b""


def _raw_log(path, payload: dict):
    """A log of one raw record with ``payload``, written as ``json.dumps`` writes it."""
    record = {
        "aging_policy": 50,
        "context": {
            "area": list(AREA.as_tuple()),
            "time_window": [0, 100],
            "target_type": "vehicle",
            "conditions": [],
        },
        "created_at": 0,
        "kind": "raw",
        "metadata": [],
        "payload": {**payload, "type": "detections"},
        "record_id": "rec-000001",
        "stid": "stid-1",
    }
    header = {"magic": LOG_MAGIC, "version": 1}
    path.write_text(f"{json.dumps(header)}\n{json.dumps(record, sort_keys=True)}\n")
    return live_record(SdsfStore(path), "rec-000001")


def test_raw_line_with_covariances_reopens_as_the_line_without_them(tmp_path):
    # Logs written before detections dropped their covariance carry a "cov"
    # per item; replay ignores it.  Logs written before raw payloads were
    # stored as columns carry one item per detection.
    items = [
        {"clutter": False, "cov": [0.64, 0.01, 0.5], "source_se": "se-1", "x": 1.5, "y": -2.0},
        {"clutter": True, "cov": [1.0, 0.0, 1.0], "source_se": "se-0", "x": 0.25, "y": 3.0},
        {"clutter": False, "cov": [2.0, -0.5, 1.0], "source_se": "se-1", "x": 7.0, "y": 8.125},
    ]
    old = _raw_log(tmp_path / "old.jsonl", {"items": items})
    without = [{k: v for k, v in item.items() if k != "cov"} for item in items]
    new = _raw_log(tmp_path / "new.jsonl", {"items": without})
    columns = _raw_log(
        tmp_path / "columns.jsonl",
        {
            "clutter": [False, True, False],
            "se_ids": ["se-1", "se-0"],
            "se_idx": [0, 1, 0],
            "xy": [[1.5, -2.0], [0.25, 3.0], [7.0, 8.125]],
        },
    )
    assert old is not None and new is not None and columns is not None
    assert old.payload == new.payload == columns.payload
    assert old.payload.xy.tobytes() == new.payload.xy.tobytes() == columns.payload.xy.tobytes()
    assert old.payload == columns_of(
        [(1.5, -2.0), (0.25, 3.0), (7.0, 8.125)], ["se-1", "se-0", "se-1"], [False, True, False]
    )


def test_log_written_with_covariances_replays_and_rewrites_without_them(tmp_path):
    # An archive_raw demo's store (t_steps 2, lambda_fa 2) as written while
    # raw items carried a "cov": re-storing its raw record into a copy of the
    # lines before it writes the same record with its items as compact
    # columns, and without the "kind", "conditions" and "metadata" that lines
    # then held.  The same items as JSON-list columns replay to that record.
    lines = _lines(FIXTURE)
    assert len(lines) == 5 and b'"cov": [' in lines[4]
    raw = live_record(SdsfStore(FIXTURE), "rec-000004")
    assert raw is not None and raw.kind == "raw" and len(raw.payload) == 35
    path = tmp_path / "store.jsonl"
    path.write_bytes(b"".join(lines[:4]))
    SdsfStore(path).store(raw.stid, raw.context, raw.payload, raw.created_at, raw.aging_policy)
    expected = json.loads(lines[4])
    del expected["kind"], expected["metadata"], expected["context"]["conditions"]
    items = expected["payload"]["items"]
    se_ids = list(dict.fromkeys(item["source_se"] for item in items))
    pairs = [[item["x"], item["y"]] for item in items]
    clutter = [item["clutter"] for item in items]
    se_idx = [se_ids.index(item["source_se"]) for item in items]
    expected["payload"] = {
        "clutter": _compact_clutter(clutter),
        "se_ids": se_ids,
        "se_idx": se_idx,
        "type": "detections",
        "xy": _compact_xy(pairs),
    }
    rewritten = _lines(path)
    assert rewritten[:4] == lines[:4] and b'"cov"' not in rewritten[4]
    assert json.loads(rewritten[4]) == expected
    assert live_record(SdsfStore(path), "rec-000004") == raw

    lists = {"clutter": clutter, "se_ids": se_ids, "se_idx": se_idx, "xy": pairs}
    listed = _raw_log(tmp_path / "lists.jsonl", lists)
    assert listed is not None and listed.payload == raw.payload
    assert listed.payload.xy.tobytes() == raw.payload.xy.tobytes()


def test_log_written_with_list_columns_replays_and_rewrites_compact(tmp_path):
    # An archive_raw demo's store (t_steps 2, lambda_fa 2) as written while
    # raw columns were JSON lists: its raw record replays to the columns that
    # the line spells and that the same demo builds in memory, bit for bit,
    # and re-storing it into a copy of the lines before it writes the same
    # record with compact columns.
    lines = _lines(LIST_COLUMNS_FIXTURE)
    assert len(lines) == 5 and b'"xy":[[' in lines[4]
    raw = live_record(SdsfStore(LIST_COLUMNS_FIXTURE), "rec-000004")
    assert raw is not None and raw.kind == "raw" and len(raw.payload) == 35
    spelled = json.loads(lines[4])["payload"]
    assert raw.payload.xy.tobytes() == np.array(spelled["xy"], dtype=float).tobytes()
    assert raw.payload.is_clutter.tolist() == spelled["clutter"]
    assert raw.payload.sources() == [spelled["se_ids"][i] for i in spelled["se_idx"]]

    cfg = parse_config({"scenario": {"t_steps": 2, "lambda_fa": 2}, "demo": {"archive_raw": True}})
    memory = SdsfStore()
    run_call_flow(build_scenario(cfg.scenario), cfg.demo, memory)
    (built,) = [r.payload for r in memory.fetch(raw.context) if r.kind == "raw"]
    assert raw.payload == built and raw.payload.xy.tobytes() == built.xy.tobytes()

    path = tmp_path / "store.jsonl"
    path.write_bytes(b"".join(lines[:4]))
    SdsfStore(path).store(raw.stid, raw.context, raw.payload, raw.created_at, raw.aging_policy)
    expected = json.loads(lines[4])
    expected["payload"]["xy"] = _compact_xy(spelled["xy"])
    expected["payload"]["clutter"] = _compact_clutter(spelled["clutter"])
    compact = json.dumps(expected, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert _lines(path) == [*lines[:4], compact.encode() + b"\n"]
    assert live_record(SdsfStore(path), "rec-000004") == raw


def _without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _with(key, row, value):
    return lambda payload: {**payload, key: [*payload[key][:row], value, *payload[key][row + 1 :]]}


@pytest.mark.parametrize(
    "corrupt",
    [
        # The one-item-per-detection form of older logs, its second item without "x".
        lambda payload: {
            "items": [
                {"clutter": False, "source_se": "se-0", "x": 1.0, "y": 2.0},
                {"clutter": False, "source_se": "se-0", "y": 2.0},
            ],
            "type": "detections",
        },
        _without("xy"),
        _with("xy", 1, [1.0]),
        lambda payload: {**payload, "se_idx": payload["se_idx"][:2]},
        _with("se_idx", 1, 1),
        _with("clutter", 1, 0),
        _with("xy", 1, [None, 2.0]),
        # Past float range: orjson rejects the line, and json.loads reads an int.
        _with("xy", 1, [10**400, 2.0]),
    ],
    ids=[
        "missing-field",
        "missing-xy",
        "ragged-row",
        "length-mismatch",
        "se-idx-out-of-range",
        "non-bool-clutter",
        "null-coordinate",
        "huge-integer-coordinate",
    ],
)
def test_corrupt_raw_record_raises_store_corrupt_error(tmp_path, corrupt):
    # The JSON-list columns of older logs, edited.
    lists = {"clutter": [False] * 3, "se_ids": ["se-0"], "se_idx": [0] * 3, "xy": [[1.0, 2.0]] * 3}
    _assert_bad_raw_line(tmp_path, corrupt({**lists, "type": "detections"}))


def _assert_bad_raw_line(tmp_path, payload: dict) -> None:
    """A log whose fourth line is a raw record with ``payload`` fails replay naming that line."""
    path = _two_record_log(tmp_path)
    store = SdsfStore(path)
    store.store("stid-2", ctx(), columns_of([(1.0, 2.0)] * 3), 0, 1000)
    store.store("stid-3", ctx(window=(0, 5)), demo_map(), 0, 1000)
    lines = _lines(path)
    record = json.loads(lines[3])
    record["payload"] = payload
    lines[3] = (json.dumps(record, sort_keys=True) + "\n").encode()
    path.write_bytes(b"".join(lines))
    with pytest.raises(StoreCorruptError, match=r"store\.jsonl:4: bad record") as err:
        SdsfStore(path)
    assert err.value.lineno == 4
    # The message names what is wrong, never the payload's text.
    for column in (payload.get("xy"), payload.get("clutter")):
        if isinstance(column, str) and len(column) >= 8:
            assert column not in str(err.value)


_XY3 = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
_XY4 = _XY3 + [[7.0, 8.0]]  # 64 bytes: a last group with one byte and two pad characters
_B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _leftover_bits(text: str) -> str:
    """A padded base64 string with the lowest leftover bit of its last group set.

    It decodes to the same bytes, as ``'AB=='`` and ``'AA=='`` both decode
    to one zero byte, but the writer never spells it so.
    """
    at = len(text.rstrip("=")) - 1
    assert text.endswith("=") and _B64_ALPHABET.index(text[at]) % 4 == 0
    spelled = text[:at] + _B64_ALPHABET[_B64_ALPHABET.index(text[at]) + 1] + text[at + 1 :]
    assert base64.b64decode(spelled, validate=True) == base64.b64decode(text, validate=True)
    return spelled


@pytest.mark.parametrize(
    "xy, clutter, rows",
    [
        ("!" + _compact_xy(_XY3)[1:], _compact_clutter([False] * 3), 3),
        ("-" + _compact_xy(_XY3)[1:], _compact_clutter([False] * 3), 3),
        ("é" + _compact_xy(_XY3)[1:], _compact_clutter([False] * 3), 3),
        (_compact_xy(_XY3), _compact_clutter([False] * 3).rstrip("="), 3),
        (base64.b64encode(struct.pack("<3d", 1.0, 2.0, 3.0)).decode(), "AA==", 3),
        (_compact_xy(_XY3), _compact_clutter([False] * 11), 3),
        (_compact_xy(_XY3), "", 3),
        (_compact_xy(_XY3), _compact_clutter([False, True, False, True]), 3),
        (_compact_xy(_XY3), base64.b64encode(b"\x01").decode(), 3),
        (_compact_xy([[1.0, 2.0], [math.nan, 4.0], [5.0, 6.0]]), _compact_clutter([False] * 3), 3),
        (_compact_xy([[1.0, 2.0], [3.0, -math.inf], [5.0, 6.0]]), _compact_clutter([False] * 3), 3),
        (_compact_xy(_XY3), [False] * 3, 3),
        (_XY3, _compact_clutter([False] * 3), 3),
        (_compact_xy(_XY3[:2]), _compact_clutter([False] * 2), 3),
        (_compact_xy(_XY3), _leftover_bits(_compact_clutter([False] * 3)), 3),
        (_leftover_bits(_compact_xy(_XY4)), _compact_clutter([False] * 4), 4),
        (_leftover_bits(_compact_xy(_XY4)), _leftover_bits(_compact_clutter([False] * 4)), 4),
        (_leftover_bits(_compact_xy(_XY3[:2])), _compact_clutter([False] * 2), 2),
    ],
    ids=[
        "non-alphabet-char",
        "url-safe-alphabet-char",
        "non-ascii-char",
        "unpadded",
        "xy-not-a-multiple-of-16-bytes",
        "clutter-too-long",
        "clutter-empty",
        "clutter-pad-bit",
        "clutter-last-pad-bit",
        "nan-position",
        "infinite-position",
        "string-xy-list-clutter",
        "list-xy-string-clutter",
        "fewer-rows-than-se-idx",
        "clutter-leftover-bits",
        "xy-leftover-bits",
        "xy-and-clutter-leftover-bits",
        "xy-leftover-bits-in-a-one-pad-group",
    ],
)
def test_corrupt_compact_raw_record_raises_store_corrupt_error(tmp_path, xy, clutter, rows):
    payload = {"clutter": clutter, "se_ids": ["se-0"], "se_idx": [0] * rows, "type": "detections"}
    _assert_bad_raw_line(tmp_path, {**payload, "xy": xy})


# -- strict JSON ---------------------------------------------------------------------


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name} in the log")


def test_non_finite_metrics_are_written_as_null_and_read_as_nan(tmp_path):
    path = tmp_path / "store.jsonl"
    nan_metrics = MetricResult(pd_per_target={0: math.nan, 1: 0.5}, pd_avg=math.nan, fa_avg=2.0)
    SdsfStore(path).store("stid-1", ctx(), nan_metrics, 0, 50)
    payload = json.loads(_lines(path)[1], parse_constant=_no_constants)["payload"]
    assert payload["pd_avg"] is None and payload["pd_per_target"] == {"0": None, "1": 0.5}
    record = live_record(SdsfStore(path), "rec-000001")
    assert record is not None
    assert math.isnan(record.payload.pd_avg) and math.isnan(record.payload.pd_per_target[0])
    assert record.payload.pd_per_target[1] == 0.5 and record.payload.fa_avg == 2.0


def test_demo_without_targets_writes_strict_json(tmp_path):
    cfg = parse_config({"scenario": {"n_targets": 0}})
    store_path = tmp_path / "store.jsonl"
    report = demo_callflow(cfg, build_scenario(cfg.scenario), tmp_path / "t.jsonl", store_path)
    assert math.isnan(report.run.result.metrics.pd_avg)
    for line in _lines(store_path):
        json.loads(line, parse_constant=_no_constants)
    reopened = SdsfStore(store_path)
    metrics = [r.payload for r in reopened.fetch(ctx(window=(0, 10**6))) if r.kind == "high-level"]
    assert len(metrics) == 1 and math.isnan(metrics[0].pd_avg)


# -- replay: orjson decoding and interning ---------------------------------------------


def _typed(value):
    """``value`` as nested tuples that are equal only for equal values of equal types.

    Floats compare by ``float.hex``, so ``-0.0`` differs from ``0.0`` and NaN
    equals NaN; ``1`` differs from ``1.0`` because every entry carries its type.
    """
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, DetectionColumns):
        return (
            "DetectionColumns",
            value.xy.tobytes(),
            value.se_idx.tolist(),
            _typed(value.se_ids),
            value.is_clutter.tolist(),
        )
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__, *(_typed(getattr(value, f.name)) for f in fields))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, *map(_typed, value))
    if isinstance(value, dict):
        return ("dict", *((_typed(k), _typed(v)) for k, v in value.items()))
    return (type(value).__name__, value)


# Rects that overlap one another, with equal coordinates of different types
# or signs, so that replay meets repeated and nearly repeated JSON coordinates.
_RECT_POOL = [
    Rect(0.0, 0.0, 120.0, 120.0),
    Rect(-0.0, 0.0, 120.0, 120.0),
    Rect(0, 0, 120, 120),
    Rect(0.0, 0.0, 60.0, 120.0),
    Rect(20.0, 45.0, 55.0, 75.0),
    Rect(2**-20, 1 / 3, 0.1, 1e300),
]
# Non-ASCII, quote and backslash characters, but no lone surrogate, which
# UTF-8 cannot encode and ``store()`` rejects.
_TEXT = st.text(
    st.sampled_from('ab"\\é€😀') | st.characters(codec="utf-8"), min_size=1, max_size=6
)
# Small integers, and the top of the int64 range that a record's integers keep to.
_INTS = st.one_of(st.integers(0, 10**6), st.sampled_from([2**62, 2**63 - 2, 2**63 - 1]))
_METRIC = st.one_of(st.just(math.nan), st.floats(0.0, 1.0), st.floats(-1e300, 1e300))


@st.composite
def _static_maps(draw) -> StaticMap:
    bounds = draw(st.sampled_from(_RECT_POOL))
    rects = draw(st.lists(st.sampled_from(_RECT_POOL), max_size=3))
    return StaticMap(tuple(r for r in rects if r.intersects(bounds)), bounds)


@st.composite
def _metric_results(draw) -> MetricResult:
    return MetricResult(
        pd_per_target=draw(st.dictionaries(st.integers(-5, 2**70), _METRIC, max_size=4)),
        pd_avg=draw(_METRIC),
        fa_avg=draw(_METRIC),
        excluded_targets=tuple(draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=3))),
    )


@st.composite
def _record_specs(draw) -> dict:
    return {
        "stid": draw(_TEXT),
        "context": SensingContext(
            area=draw(st.sampled_from(_RECT_POOL)),
            time_window=tuple(sorted((draw(_INTS), draw(_INTS)))),
            target_type=draw(st.sampled_from(["vehicle", "unknown"])),
        ),
        "payload": draw(st.one_of(_static_maps(), _metric_results(), _columns())),
        "created_at": draw(_INTS),
        "extra_age": draw(_INTS),
    }


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_record_specs(), min_size=1, max_size=6))
def test_replay_decodes_every_line_as_json_loads_does(tmp_path_factory, specs):
    path = tmp_path_factory.mktemp("parity") / "store.jsonl"
    store = SdsfStore(path)
    now = max(spec["created_at"] for spec in specs)
    store.set_now(now)
    for spec in specs:
        store.store(
            spec["stid"],
            spec["context"],
            spec["payload"],
            spec["created_at"],
            # Old enough to stay live at the replayed clock, and within int64.
            aging_policy=min(now - spec["created_at"] + spec["extra_age"], 2**63 - 1),
        )
    expected = [_record_from_json(json.loads(line)) for line in _lines(path)[1:]]
    replayed = list(SdsfStore(path)._records.values())
    assert [_typed(r) for r in replayed] == [_typed(r) for r in expected]


def test_replay_reads_bare_nan_of_older_logs(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text(
        json.dumps({"magic": LOG_MAGIC, "version": 1})
        + "\n"
        + '{"aging_policy": 50, "context": {"area": [0.0, 0.0, 120.0, 120.0], '
        '"conditions": [], "target_type": "vehicle", "time_window": [0, 100]}, '
        '"created_at": 0, "kind": "high-level", "metadata": [], "payload": '
        '{"excluded_targets": [3], "fa_avg": 2.0, "pd_avg": NaN, '
        '"pd_per_target": {"0": NaN, "1": 0.5}, "type": "metrics"}, '
        '"record_id": "rec-000001", "stid": "stid-1"}\n'
    )
    record = live_record(SdsfStore(path), "rec-000001")
    assert record is not None
    assert _typed(record) == _typed(_record_from_json(json.loads(_lines(path)[1])))
    assert math.isnan(record.payload.pd_avg) and record.payload.excluded_targets == (3,)


def _older_metrics_log(
    stid: str = "stid-1",
    area: str = "0.0, 0.0, 120.0, 120.0",
    created_at: str = "0",
    pd_avg: str = "0.5",
    kind: str = "high-level",
) -> str:
    """A log of one metrics record as ``json.dumps`` wrote it, with fields spelled as given."""
    return (
        json.dumps({"magic": LOG_MAGIC, "version": 1})
        + "\n"
        + f'{{"aging_policy": 50, "context": {{"area": [{area}], '
        '"conditions": [], "target_type": "vehicle", "time_window": [0, 100]}, '
        f'"created_at": {created_at}, "kind": "{kind}", "metadata": [], "payload": '
        f'{{"excluded_targets": [], "fa_avg": 2.0, "pd_avg": {pd_avg}, '
        '"pd_per_target": {"0": 0.5}, "type": "metrics"}, '
        f'"record_id": "rec-000001", "stid": "{stid}"}}\n'
    )


@pytest.mark.parametrize("kind", ["raw", "processed", "metrics"])
def test_older_line_whose_kind_is_not_its_payloads_is_a_bad_record(tmp_path, kind):
    path = tmp_path / "store.jsonl"
    path.write_text(_older_metrics_log(kind=kind))
    problem = f"kind: '{kind}' does not match payload kind 'high-level'"
    with pytest.raises(StoreCorruptError, match=rf"store\.jsonl:2: bad record: {problem}$"):
        SdsfStore(path)


def test_log_written_before_the_schema_trim_serves_as_written(tmp_path, capsys):
    # Two default demos' store as written while each line also held a
    # "kind", a "conditions" and a "metadata".
    lines = _lines(TRIMMED_FIXTURE)
    assert len(lines) == 6 and all(b'"metadata"' in line for line in lines[1:])
    old = list(SdsfStore(TRIMMED_FIXTURE)._records.values())
    trimmed = tmp_path / "trimmed.store"
    rewrite = SdsfStore(trimmed)
    for r in old:
        rewrite.set_now(r.created_at)
        rewrite.store(r.stid, r.context, r.payload, r.created_at, r.aging_policy)
    data = trimmed.read_bytes()
    assert b'"kind"' not in data and b'"conditions"' not in data and b'"metadata"' not in data
    assert [_typed(r) for r in SdsfStore(trimmed)._records.values()] == [_typed(r) for r in old]
    # A third default demo on either store is served the same result from history.
    untrimmed = tmp_path / "untrimmed.store"
    untrimmed.write_bytes(TRIMMED_FIXTURE.read_bytes())
    runs = []
    for store in (untrimmed, trimmed):
        trace = tmp_path / f"{store.stem}.jsonl"
        capsys.readouterr()
        assert main(["demo", "--trace", str(trace), "--store", str(store)]) == 0
        runs.append((capsys.readouterr().out.splitlines()[2:], trace.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == [
        "task stid-000200-01: source=historical-only, mask=off",
        "  pd_avg=0.8625, fa_avg=43.24 -> KPI satisfied",
    ]
    assert untrimmed.read_bytes()[len(TRIMMED_FIXTURE.read_bytes()) :] == trimmed.read_bytes()[
        len(data) :
    ]


def test_replay_reads_lone_surrogates_of_older_logs(tmp_path):
    # ``json.dumps`` wrote a lone surrogate as an escape that orjson rejects.
    path = tmp_path / "store.jsonl"
    path.write_text(_older_metrics_log(stid="stid-\\ud800"))
    record = live_record(SdsfStore(path), "rec-000001")
    assert record is not None and record.stid == "stid-\ud800"
    assert _typed(record) == _typed(_record_from_json(json.loads(_lines(path)[1])))


@pytest.mark.parametrize(
    "fields",
    [
        {"area": "0.0, 0.0, 1000000000000000000000000000000, 120.0"},
        {"created_at": "1000000000000000000000000000000"},
        {"created_at": "9223372036854775808"},
    ],
    ids=["area-10**30", "created-at-10**30", "created-at-2**63"],
)
def test_older_line_with_an_integer_past_int64_is_a_bad_record(tmp_path, fields):
    # The bare NaN sends the line to ``json.loads``, which reads the integer exactly.
    path = tmp_path / "store.jsonl"
    path.write_text(_older_metrics_log(pd_avg="NaN", **fields))
    with pytest.raises(StoreCorruptError, match=r"store\.jsonl:2: bad record: "):
        SdsfStore(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"stid": "stid-\ud800"},
        {"payload": DetectionColumns(np.zeros((1, 2)), [0], ("se-\ud800",), [False])},
        {"payload": MetricResult({0: 0.9}, 0.9, 1.5, excluded_targets=(2**64,))},
        {"context": ctx(area=Rect(0.0, 0.0, 2**70, 120.0))},
    ],
    ids=[
        "surrogate-stid",
        "surrogate-se-id",
        "excluded-2**64",
        "rect-2**70",
    ],
)
def test_store_rejects_a_record_orjson_cannot_encode(tmp_path, fields):
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    store.store("stid-1", ctx(), demo_map(), 0, 50)
    before = path.read_bytes()
    record = {"stid": "stid-2", "context": ctx(), "payload": demo_map()}
    with pytest.raises(ValueError, match="^record rejected: "):
        store.store(**{**record, **fields}, created_at=0, aging_policy=50)
    assert len(store) == 1 and path.read_bytes() == before
    # The rejected record used up no id.
    assert store.store(**record, created_at=0, aging_policy=50) == "rec-000002"
    assert list(SdsfStore(path)._records) == ["rec-000001", "rec-000002"]


def test_failed_append_indexes_nothing(tmp_path):
    folder = tmp_path / "gone"
    folder.mkdir()
    store = SdsfStore(folder / "s.log")
    folder.rmdir()
    with pytest.raises(FileNotFoundError):
        store.store("stid-1", ctx(), demo_map(), 0, 50)
    assert len(store) == 0
    folder.mkdir()
    assert store.store("stid-1", ctx(), demo_map(), 0, 50) == "rec-000001"
    assert len(store) == 1
    assert list(SdsfStore(folder / "s.log")._records) == ["rec-000001"]


def test_largest_aging_policy_reopens_exact_after_two_demos(tmp_path, capsys):
    # Two default demos (t_steps 100) end their last windows at 2**63 - 1.
    aging = 2**63 - 1 - 200
    config = tmp_path / "age.yaml"
    config.write_text(f"demo:\n  aging_policy: {aging}\n")
    store_path = tmp_path / "run.store"
    argv = ["demo", "--config", str(config), "--trace", str(tmp_path / "t.jsonl")]
    for _ in range(2):
        assert main([*argv, "--store", str(store_path)]) == 0
    assert "source=historical-only" in capsys.readouterr().out
    records = list(SdsfStore(store_path)._records.values())
    assert len(records) == 5
    for record in records:
        assert type(record.aging_policy) is int and record.aging_policy == aging
        assert all(type(t) is int for t in record.context.time_window)
        assert record.context.time_window[1] == record.created_at + aging
    assert max(r.context.time_window[1] for r in records) == 2**63 - 1
    expected = [_record_from_json(json.loads(line)) for line in _lines(store_path)[1:]]
    assert [_typed(r) for r in records] == [_typed(r) for r in expected]
    # A third demo would store a window ending past int64.
    before = store_path.read_bytes()
    assert main([*argv, "--store", str(store_path)]) == 2
    assert "demo.aging_policy: the store clock 200 + t_steps 100" in capsys.readouterr().err
    assert store_path.read_bytes() == before


def _duplicate_log(tmp_path, copies: int = 40):
    """A log of ``copies`` map records and as many metrics records, all alike."""
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    for t in range(copies):
        store.set_now(t)
        store.store("stid-1", ctx(), demo_map(), t, 1000)
        store.store("stid-1", ctx(), metrics_payload(), t, 1000)
    return path


def test_replay_shares_equal_maps_but_never_metrics(tmp_path):
    path = _duplicate_log(tmp_path, copies=3)
    records = list(SdsfStore(path)._records.values())
    maps = [r.payload for r in records if r.kind == "processed"]
    metrics = [r.payload for r in records if r.kind == "high-level"]
    assert maps[0] == maps[1] == maps[2] == demo_map()
    assert maps[0] is maps[1] is maps[2]
    assert records[0].context.area is records[1].context.area
    assert metrics[0] == metrics[1] == metrics[2] == metrics_payload()
    assert len({id(m.pd_per_target) for m in metrics}) == 3
    metrics[0].pd_per_target[0] = 0.1
    assert metrics[1].pd_per_target == {0: 0.9}


def test_replay_keeps_equal_coordinates_of_other_type_or_sign_apart(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    areas = [Rect(0.0, 0.0, 120.0, 120.0), Rect(-0.0, 0.0, 120.0, 120.0), Rect(0, 0, 120, 120)]
    for stid, area in zip(("stid-1", "stid-2", "stid-3"), areas):
        store.store(stid, ctx(area=area), StaticMap((), area), 0, 1000)
    records = list(SdsfStore(path)._records.values())
    assert [_typed(r.context.area) for r in records] == [_typed(a) for a in areas]
    assert [_typed(r.payload.bounds) for r in records] == [_typed(a) for a in areas]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d.pop("stid"),
        lambda d: d["context"].update(time_window=[5, 1]),
        lambda d: d["context"].update(area=[0.0, 0.0, 0.0, 120.0]),
        lambda d: d["payload"].update(rects=[[200.0, 200.0, 300.0, 300.0]]),
    ],
    ids=["missing-stid", "reversed-window", "flat-area", "rect-outside-bounds"],
)
def test_corrupt_line_after_many_duplicates_names_its_own_line(tmp_path, corrupt):
    path = _duplicate_log(tmp_path)
    lines = _lines(path)
    record = json.loads(lines[1])  # a map record like every other odd line
    corrupt(record)
    record["record_id"] = "rec-000081"
    path.write_bytes(b"".join(lines) + (json.dumps(record, sort_keys=True) + "\n").encode())
    with pytest.raises(StoreCorruptError, match=r"store\.jsonl:82: bad record") as err:
        SdsfStore(path)
    assert err.value.lineno == 82


# Areas that contain, cross, touch and miss the requested ones, some of them
# equal in value but not in type or sign.
_QUERY_RECTS = [
    *_RECT_POOL[:5],
    Rect(50.0, 50.0, 150.0, 150.0),
    Rect(120.0, 0.0, 130.0, 10.0),
    Rect(-10.0, -10.0, 5.0, 200.0),
    Rect(-10.0, 20.0, 30.0, 60.0),
    Rect(100.0, -5.0, 125.0, 50.0),
]
# Small step ranges, so that record windows often share a start or an end
# with each other and with the requested window.
_STEPS = st.integers(0, 12)


@settings(max_examples=300, deadline=None)
@given(
    stored=st.lists(
        st.tuples(
            st.sampled_from(_QUERY_RECTS),
            _STEPS,
            _STEPS,
            st.sampled_from(["vehicle", "pedestrian", "unknown"]),
            _STEPS,
            _STEPS,
        ),
        max_size=12,
    ),
    area=st.sampled_from(_QUERY_RECTS),
    start=_STEPS,
    length=_STEPS,
    target_type=st.sampled_from(["vehicle", "pedestrian"]),
    max_age=_STEPS,
)
def test_read_path_equals_one_portion_per_record(
    stored, area, start, length, target_type, max_age
):
    store = SdsfStore()
    store.set_now(12)
    for i, (rect, w0, width, kind, created_at, aging) in enumerate(stored):
        context = SensingContext(rect, (w0, w0 + width), kind)
        store.store(f"stid-{i}", context, metrics_payload(), created_at, aging)
    records = list(store._records.values())
    ctx = SensingContext(area, (start, start + length), target_type)
    fetched = store.fetch(ctx, max_age=max_age)
    assert fetched == oracles.fetch(records, ctx, store.now, max_age)
    # Equal in value: a clipped corner may differ from the stored one in type.
    assert availability(ctx, fetched) == oracles.availability(records, ctx, store.now, max_age)
