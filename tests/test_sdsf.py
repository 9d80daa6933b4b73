import json

import pytest

from sensefuse.errors import StoreCorruptError
from sensefuse.geometry import Rect, StaticMap
from sensefuse.metrics import MetricResult
from sensefuse.sdsf_store import (
    LOG_MAGIC,
    Availability,
    SdsfStore,
    SensingContext,
)

from conftest import make_detection

AREA = Rect(0.0, 0.0, 120.0, 120.0)


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


def test_context_conditions_are_canonically_sorted():
    a = SensingContext(AREA, (0, 1), "vehicle", (("b", "2"), ("a", "1")))
    b = SensingContext(AREA, (0, 1), "vehicle", (("a", "1"), ("b", "2")))
    assert a == b and a.key() == b.key()


def test_availability_invariants():
    with pytest.raises(ValueError):
        Availability(status="exists", missing_portions=(ctx(),))
    with pytest.raises(ValueError):
        Availability(status="missing", available_portions=(ctx(),))
    with pytest.raises(ValueError):
        Availability(status="total")


# -- store write path -------------------------------------------------------------


def test_store_and_get_round_trip():
    store = SdsfStore()
    rid = store.store("stid-1", "processed", ctx(), demo_map(), created_at=0, aging_policy=50)
    record = store.get(rid)
    assert record is not None
    assert record.stid == "stid-1"
    assert record.kind == "processed"
    assert record.payload == demo_map()


def test_store_is_idempotent_on_logical_identity():
    store = SdsfStore()
    rid1 = store.store("stid-1", "processed", ctx(), demo_map(), 0, 50)
    rid2 = store.store("stid-1", "processed", ctx(), demo_map(), 0, 50)
    assert rid1 == rid2
    assert len(store) == 1


def test_same_context_different_kinds_are_distinct_records():
    store = SdsfStore()
    rid1 = store.store("stid-1", "processed", ctx(), demo_map(), 0, 50)
    rid2 = store.store("stid-1", "high-level", ctx(), metrics_payload(), 0, 50)
    assert rid1 != rid2
    assert len(store) == 2


def test_store_rejects_future_created_at():
    store = SdsfStore()
    with pytest.raises(ValueError, match="future"):
        store.store("stid-1", "processed", ctx(), demo_map(), created_at=5, aging_policy=50)


def test_store_rejects_kind_payload_mismatch():
    store = SdsfStore()
    with pytest.raises(ValueError, match="does not match"):
        store.store("stid-1", "raw", ctx(), demo_map(), 0, 50)
    with pytest.raises(ValueError, match="does not match"):
        store.store("stid-1", "processed", ctx(), metrics_payload(), 0, 50)


def test_store_rejects_unsupported_payload_and_bad_fields():
    store = SdsfStore()
    with pytest.raises(ValueError, match="unsupported payload"):
        store.store("stid-1", "processed", ctx(), "not a payload", 0, 50)
    with pytest.raises(ValueError, match="stid"):
        store.store("", "processed", ctx(), demo_map(), 0, 50)
    with pytest.raises(ValueError, match="aging_policy"):
        store.store("stid-1", "processed", ctx(), demo_map(), 0, -1)


def test_detection_list_is_raw_kind():
    store = SdsfStore()
    rid = store.store("stid-1", "raw", ctx(), [make_detection(1.0, 2.0)], 0, 50)
    record = store.get(rid)
    assert record is not None and record.kind == "raw"


# -- availability ------------------------------------------------------------------


def test_availability_empty_store_is_missing():
    store = SdsfStore()
    result = store.query_availability(ctx())
    assert result.status == "missing"
    assert result.missing_portions == (ctx(),)


def test_availability_full_cover_is_exists():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(window=(0, 200)), demo_map(), 0, 1000)
    result = store.query_availability(ctx(window=(10, 90)))
    assert result.status == "exists"
    assert result.available_portions[0].time_window == (10, 90)


def test_availability_spatial_partial_reports_both_portions():
    store = SdsfStore()
    west = Rect(0.0, 0.0, 60.0, 120.0)
    store.store("stid-1", "processed", ctx(area=west), demo_map(west), 0, 1000)
    result = store.query_availability(ctx())
    assert result.status == "partial"
    assert [c.area for c in result.available_portions] == [west]
    assert [c.area for c in result.missing_portions] == [Rect(60.0, 0.0, 120.0, 120.0)]


def test_availability_temporal_partial():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(window=(0, 50)), demo_map(), 0, 1000)
    result = store.query_availability(ctx(window=(0, 100)))
    assert result.status == "partial"
    assert [c.time_window for c in result.missing_portions] == [(51, 100)]


def test_availability_type_matching():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(target_type="unknown"), demo_map(), 0, 1000)
    # Type-agnostic stored data satisfies a vehicle request, not vice versa.
    assert store.query_availability(ctx(target_type="vehicle")).status == "exists"
    store2 = SdsfStore()
    store2.store("stid-1", "processed", ctx(target_type="pedestrian"), demo_map(), 0, 1000)
    assert store2.query_availability(ctx(target_type="vehicle")).status == "missing"


def test_availability_ignores_expired_records():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(11)
    assert store.query_availability(ctx()).status == "missing"


# -- fetch and aging ---------------------------------------------------------------


def test_fetch_age_bound_is_inclusive():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(), demo_map(), 0, 1000)
    store.set_now(5)
    assert len(store.fetch(ctx(), max_age=5)) == 1
    store.set_now(10)
    assert store.fetch(ctx(), max_age=5) == []


def test_fetch_filters_stale_and_orders_newest_first():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(), demo_map(), 0, 1000)
    store.set_now(80)
    store.store("stid-2", "processed", ctx(), demo_map(), 80, 1000)
    fresh = store.fetch(ctx(), max_age=30)
    assert [r.stid for r in fresh] == ["stid-2"]
    both = store.fetch(ctx())
    assert [r.stid for r in both] == ["stid-2", "stid-1"]


def test_fetch_never_returns_self_expired_records():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(20)
    assert store.fetch(ctx()) == []


def test_get_expired_returns_none():
    store = SdsfStore()
    rid = store.store("stid-1", "processed", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(11)
    assert store.get(rid) is None


def test_apply_aging_removes_and_is_idempotent():
    store = SdsfStore()
    store.store("stid-1", "processed", ctx(), demo_map(), 0, aging_policy=100)
    assert store.apply_aging(100) == 0  # age 100 is not past a policy of 100
    assert store.apply_aging(101) == 1
    assert store.apply_aging(101) == 0
    assert len(store) == 0


def test_aged_out_record_can_be_stored_again():
    store = SdsfStore()
    rid1 = store.store("stid-1", "processed", ctx(), demo_map(), 0, aging_policy=10)
    store.apply_aging(50)
    rid2 = store.store("stid-1", "processed", ctx(), demo_map(), 50, aging_policy=10)
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
    store.store("stid-1", "processed", ctx(), demo_map(), 0, 1000)
    store.set_now(30)
    store.store("stid-2", "high-level", ctx(window=(0, 30)), metrics_payload(), 30, 1000)
    store.store("stid-3", "raw", ctx(), [make_detection(1.0, 2.0)], 30, 1000)

    reloaded = SdsfStore(path)
    assert len(reloaded) == 3
    assert reloaded.now == 30
    for rid in ("rec-000001", "rec-000002", "rec-000003"):
        assert reloaded.get(rid) == store.get(rid)
    # Fresh ids continue after the persisted ones.
    rid = reloaded.store("stid-4", "processed", ctx(), demo_map(), 30, 1000)
    assert rid == "rec-000004"


def test_reload_ages_out_stale_records(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SdsfStore(path)
    store.store("stid-1", "processed", ctx(), demo_map(), 0, aging_policy=10)
    store.set_now(50)
    store.store("stid-2", "processed", ctx(), demo_map(), 50, aging_policy=100)
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
    store.store("stid-1", "processed", ctx(), demo_map(), 0, 1000)
    store.store("stid-1", "high-level", ctx(), metrics_payload(), 0, 1000)
    return path


def test_torn_last_line_raises_store_corrupt_error(tmp_path):
    path = _two_record_log(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    with pytest.raises(StoreCorruptError, match=r"store\.jsonl:3: bad record") as err:
        SdsfStore(path)
    assert err.value.lineno == 3


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
