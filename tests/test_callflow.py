import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sensefuse import callflow
from sensefuse.callflow import kpi_verdict, run_call_flow, write_trace
from sensefuse.config import parse_config
from sensefuse.fusion import realization_metrics
from sensefuse.geometry import Rect, StaticMap, WorldPoint
from sensefuse.harness import demo_callflow
from sensefuse.measurement import Pose
from sensefuse.metrics import MetricResult
from sensefuse.scenario import (
    ClutterModel,
    Frame,
    ScenarioConfig,
    build_scenario,
    generate_realization,
    realization_detections,
    realization_rng,
)
from sensefuse.sdsf_store import SdsfStore, SensingContext

from oracles import read_trace

SCENARIO_CFG = ScenarioConfig(t_steps=20, clutter=ClutterModel(lambda_fa=10.0), seed=3)
# The default demo settings with KPI targets any result meets.
DEMO = replace(parse_config({}).demo, pd_min=0.0, fa_max=math.inf)

RUN1_TRACE = [
    (1, "SeRegistration"),
    (1, "SeRegistration"),
    (2, "ServiceRequest"),
    (3, "ServiceAck"),
    (4, "PolicyRequest"),
    (5, "PolicyDecision"),
    (6, "AvailabilityQuery"),
    (7, "AvailabilityResponse"),
    (8, "DataPlanDecision"),
    (9, "TaskGroupCreated"),
    (10, "SensingDataRequest"),
    (10, "SensingDataRequest"),
    (11, "SensingDataReport"),
    (11, "SensingDataReport"),
    (12, "HistoricalDataRequest"),
    (13, "HistoricalDataResponse"),
    (14, "FusionCompleted"),
    (15, "SensingResult"),
    (16, "StorageUpdate"),
]

DENY_TRACE = [
    (1, "SeRegistration"),
    (1, "SeRegistration"),
    (2, "ServiceRequest"),
    (3, "ServiceAck"),
    (4, "PolicyRequest"),
    (5, "PolicyDecision"),
    (5, "ServiceAbort"),
]

RUN2_TRACE = [
    (1, "SeRegistration"),
    (1, "SeRegistration"),
    (2, "ServiceRequest"),
    (3, "ServiceAck"),
    (4, "PolicyRequest"),
    (5, "PolicyDecision"),
    (6, "AvailabilityQuery"),
    (7, "AvailabilityResponse"),
    (8, "DataPlanDecision"),
    (12, "HistoricalDataRequest"),
    (13, "HistoricalDataResponse"),
    (14, "FusionCompleted"),
    (15, "SensingResult"),
    (16, "StorageUpdate"),
]


@pytest.fixture(scope="module")
def flow_scenario():
    return build_scenario(SCENARIO_CFG)


def preseed_west_half(store: SdsfStore) -> None:
    west = Rect(0.0, 0.0, 60.0, 120.0)
    ctx = SensingContext(area=west, time_window=(0, 10_000), target_type="unknown")
    payload = StaticMap((Rect(20.0, 45.0, 55.0, 75.0),), west)
    store.store("stid-preseed", ctx, payload, created_at=0, aging_policy=100_000)


def steps_and_variants(run) -> list[tuple[int, str]]:
    return [(e.step, e.variant) for e in run.trace]


def run_flow(scenario, store, **overrides):
    return run_call_flow(scenario, replace(DEMO, **overrides), store)


# -- golden traces ----------------------------------------------------------------


def test_trace_partial_availability_golden(flow_scenario):
    store = SdsfStore()
    preseed_west_half(store)
    run = run_flow(flow_scenario, store)
    assert steps_and_variants(run) == RUN1_TRACE
    assert run.result is not None and run.result.data_source == "live+historical"
    assert run.abort_reason is None
    assert run.stid == "stid-000000-01"
    assert run.trace[0].sender == "se-0" and run.trace[1].sender == "se-1"


def test_trace_policy_deny_golden(flow_scenario):
    store = SdsfStore()
    run = run_flow(flow_scenario, store, prohibited_areas=(Rect(0.0, 0.0, 120.0, 120.0),))
    assert steps_and_variants(run) == DENY_TRACE
    assert run.result is None
    assert run.abort_reason is not None and "policy denied" in run.abort_reason
    assert run.trace[-1].receiver == "ssc"
    assert len(store) == 0


def test_trace_second_run_reuses_archive_golden(flow_scenario):
    store = SdsfStore()
    first = run_flow(flow_scenario, store)
    second = run_flow(flow_scenario, store)
    assert steps_and_variants(second) == RUN2_TRACE
    assert second.result is not None
    assert second.result.data_source == "historical-only"
    # The archived fused metrics come back verbatim, without a new fusion.
    assert second.result.metrics == first.result.metrics
    assert second.result.mask_enabled is False
    # The store clock advanced to the first run's archive time.
    assert first.stid == "stid-000000-01"
    assert second.stid == "stid-000020-01"


def test_historical_only_request_generates_no_realization(flow_scenario, monkeypatch):
    store = SdsfStore()
    run_flow(flow_scenario, store)

    def boom(scenario, rng):
        raise AssertionError("a historical-only request generated a realization")

    monkeypatch.setattr(callflow, "generate_realization", boom)
    second = run_flow(flow_scenario, store)
    assert second.result is not None
    assert second.result.data_source == "historical-only"


def test_existing_archive_below_kpi_forces_live_collection(flow_scenario):
    store = SdsfStore()
    run_flow(flow_scenario, store)
    second = run_flow(flow_scenario, store, pd_min=1.1)
    assert second.result is not None
    assert second.result.data_source == "live+historical"
    assert second.result.kpi_satisfied is False
    assert (10, "SensingDataRequest") in steps_and_variants(second)


def test_history_older_than_max_age_decides_no_coverage(flow_scenario):
    # The only covering record is a map older than max_age: the verdict comes
    # from the records fetch returns, so the request runs live-only, unmasked.
    store = SdsfStore()
    ctx = SensingContext(area=flow_scenario.bounds, time_window=(0, 10**6), target_type="unknown")
    store.store("stid-old", ctx, flow_scenario.static_map, created_at=0, aging_policy=10**6)
    store.set_now(50)
    run = run_flow(flow_scenario, store, max_age=10)
    assert run.result is not None
    assert run.result.data_source == "live-only"
    assert not {12, 13} & {e.step for e in run.trace}
    assert run.result.mask_enabled is False


# -- trace invariants ---------------------------------------------------------------


def test_no_se_tasking_before_policy_permit(flow_scenario):
    store = SdsfStore()
    run = run_flow(flow_scenario, store)
    variants = [e.variant for e in run.trace]
    assert variants.index("PolicyDecision") < variants.index("SensingDataRequest")


def test_stid_propagates_to_every_event_after_ack(flow_scenario):
    store = SdsfStore()
    run = run_flow(flow_scenario, store)
    variants = [e.variant for e in run.trace]
    ack_at = variants.index("ServiceAck")
    for event in run.trace[ack_at:]:
        assert event.stid == run.stid
    for event in run.trace[: variants.index("ServiceRequest") + 1]:
        assert event.stid is None


def test_trace_round_trips_through_jsonl(flow_scenario, tmp_path):
    store = SdsfStore()
    run = run_flow(flow_scenario, store)
    path = tmp_path / "trace.jsonl"
    with path.open("w", encoding="utf-8") as out:
        write_trace(run.trace, out)
    assert read_trace(path) == list(run.trace)


# -- policy -------------------------------------------------------------------------


def test_policy_permit_without_rules(flow_scenario):
    run = run_flow(flow_scenario, SdsfStore(), prohibited_areas=())
    assert run.abort_reason is None and run.result is not None


def test_policy_denies_prohibited_overlap(flow_scenario):
    # The abort names the first prohibited zone, in order, that meets the area.
    store = SdsfStore()
    zones = (Rect(200.0, 200.0, 210.0, 210.0), Rect(5.0, 5.0, 15.0, 15.0), Rect(0, 0, 10, 10))
    run = run_flow(flow_scenario, store, prohibited_areas=zones)
    assert run.abort_reason == (
        "policy denied: requested area intersects prohibited zone (5.0, 5.0, 15.0, 15.0)"
    )
    assert store.now == 0


def test_kpi_verdict_rejects_nan():
    nan_metrics = MetricResult(pd_per_target={}, pd_avg=math.nan, fa_avg=0.0)
    assert not kpi_verdict(nan_metrics, DEMO)


# -- consent ------------------------------------------------------------------------


def test_no_consent_runs_live_only_unmasked(flow_scenario):
    store = SdsfStore()
    preseed_west_half(store)
    run = run_flow(flow_scenario, store, historical_consent=False)
    assert run.result is not None
    assert run.result.data_source == "live-only"
    assert run.result.mask_enabled is False
    # No consent means the store read side is never touched.
    variants = [e.variant for e in run.trace]
    assert "AvailabilityQuery" not in variants
    assert "HistoricalDataRequest" not in variants
    # Nor its write side: step 16 is skipped and the clock stays put.
    assert "StorageUpdate" not in variants
    assert len(store) == 1 and store.now == 0

    # Identical metrics to gating the same realization with an empty map.
    expected = realization_metrics(
        flow_scenario,
        generate_realization(flow_scenario, realization_rng(flow_scenario.seed, 0)),
        StaticMap((), flow_scenario.bounds),
        2.0,
        3.0,
    )
    assert run.result.metrics == expected


def test_consent_with_a_foreign_map_fuses_as_live_only(flow_scenario):
    # The only fetched map overlaps the requested area, but its one building
    # lies outside it: the mask is empty, and the metrics are the no-consent run's.
    store = SdsfStore()
    area = Rect(100.0, 100.0, 200.0, 200.0)
    ctx = SensingContext(area=area, time_window=(0, 10_000), target_type="unknown")
    foreign = StaticMap((Rect(150.0, 150.0, 160.0, 160.0),), area)
    store.store("stid-foreign", ctx, foreign, created_at=0, aging_policy=100_000)
    run = run_flow(flow_scenario, store)
    unmasked = run_flow(flow_scenario, SdsfStore(), historical_consent=False)
    assert run.result is not None and unmasked.result is not None
    assert steps_and_variants(run) == RUN1_TRACE
    assert (run.result.data_source, run.result.mask_enabled) == ("live+historical", False)
    assert run.result.metrics == unmasked.result.metrics


def test_no_consent_demo_leaves_the_store_to_the_next_request(tmp_path):
    # A no-consent demo archives nothing, so a consenting demo after it on the
    # same store runs exactly as on a fresh one: live+historical, masked.
    cfg = parse_config({"demo": {"fa_max": 100}})
    scenario = build_scenario(cfg.scenario)
    no_consent = replace(cfg, demo=replace(cfg.demo, historical_consent=False))
    store = tmp_path / "demo.store"
    first = demo_callflow(no_consent, scenario, tmp_path / "a.jsonl", store)
    assert first.run.result is not None and first.run.result.data_source == "live-only"
    assert len(first.run.trace) == 14
    assert store.read_bytes().count(b"\n") == 2  # header + preseed
    after = demo_callflow(cfg, scenario, tmp_path / "b.jsonl", store).run
    fresh = demo_callflow(cfg, scenario, tmp_path / "c.jsonl", tmp_path / "fresh.store").run
    assert after.result is not None
    assert (after.result.data_source, after.result.mask_enabled) == ("live+historical", True)
    assert after.result == fresh.result and after.stid == fresh.stid
    assert store.read_bytes() == (tmp_path / "fresh.store").read_bytes()


def test_consent_with_map_lowers_false_alarms(flow_scenario):
    masked_store = SdsfStore()
    preseed_west_half(masked_store)
    masked = run_flow(flow_scenario, masked_store)
    unmasked = run_flow(flow_scenario, SdsfStore(), historical_consent=False)
    assert masked.result is not None and unmasked.result is not None
    # Same realization, same gate; the historical map strictly removes clutter.
    assert masked.result.metrics.fa_avg < unmasked.result.metrics.fa_avg


# -- component behavior ---------------------------------------------------------------


def test_kpi_miss_still_delivers_result(flow_scenario):
    store = SdsfStore()
    run = run_flow(flow_scenario, store, pd_min=1.1, fa_max=0.0)
    assert run.result is not None
    assert run.result.kpi_satisfied is False


def test_archive_contents_and_clock(flow_scenario):
    store = SdsfStore()
    run = run_flow(flow_scenario, store, aging_policy=500)
    assert store.now == 20  # epoch 0 + t_steps
    records = store.fetch(
        SensingContext(Rect(0.0, 0.0, 120.0, 120.0), (0, 10_000), "vehicle")
    )
    assert {r.kind for r in records} == {"processed", "high-level"}
    for record in records:
        assert record.created_at == 20
        assert record.stid == run.stid
        assert record.context.time_window == (20, 520)
    metrics_record = next(r for r in records if r.kind == "high-level")
    assert metrics_record.payload == run.result.metrics
    map_record = next(r for r in records if r.kind == "processed")
    assert map_record.payload == flow_scenario.static_map


def test_archive_raw_adds_pooled_detections(flow_scenario):
    store = SdsfStore()
    run_flow(flow_scenario, store, archive_raw=True)
    records = store.fetch(
        SensingContext(Rect(0.0, 0.0, 120.0, 120.0), (0, 10_000), "vehicle")
    )
    raw = [r for r in records if r.kind == "raw"]
    assert len(raw) == 1
    assert len(raw[0].payload) > 0


# -- columnar detections ------------------------------------------------------------


def _count_constructions(monkeypatch, cls) -> list[int]:
    calls = [0]
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return calls


def count_realizations(monkeypatch) -> list:
    """Patch the call flow's realization generator to record what it returns."""
    made = []
    generate = callflow.generate_realization

    def recording_generate(scenario, rng):
        made.append(generate(scenario, rng))
        return made[-1]

    monkeypatch.setattr(callflow, "generate_realization", recording_generate)
    return made


def raw_records(store: SdsfStore) -> list:
    everything = SensingContext(Rect(0.0, 0.0, 120.0, 120.0), (0, 10_000), "vehicle")
    return [r for r in store.fetch(everything) if r.kind == "raw"]


def test_live_request_without_raw_archive_builds_no_detection_objects(
    flow_scenario, monkeypatch
):
    def boom(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on a live request")

    monkeypatch.setattr(Frame, "__init__", boom)
    made = count_realizations(monkeypatch)
    store = SdsfStore()
    run = run_flow(flow_scenario, store)
    assert run.result is not None and run.result.data_source == "live-only"
    assert len(made) == 1
    assert raw_records(store) == []


def test_raw_archive_builds_pooled_objects_once(flow_scenario, monkeypatch):
    frames = _count_constructions(monkeypatch, Frame)
    made = count_realizations(monkeypatch)
    store = SdsfStore()
    run_flow(flow_scenario, store, archive_raw=True)
    raw = raw_records(store)
    assert len(raw) == 1
    assert len(made) == 1
    assert frames[0] == 0
    assert len(raw[0].payload) == len(made[0].xy)


@pytest.mark.parametrize(
    "se_poses",
    [
        (Pose(0.0, 0.0, 0.0),),
        (Pose(0.0, 0.0, 0.0), Pose(120.0, 0.0, 0.0)),
        (Pose(0.0, 0.0, 0.0), Pose(120.0, 0.0, 0.0), Pose(120.0, 120.0, 180.0)),
    ],
    ids=["1-se", "2-se", "3-se"],
)
def test_raw_record_pools_detections_frame_by_frame_then_se_by_se(se_poses):
    scenario = build_scenario(replace(SCENARIO_CFG, se_poses=se_poses))
    store = SdsfStore()
    run_flow(scenario, store, archive_raw=True)
    rz = generate_realization(scenario, realization_rng(scenario.seed, 0))
    # Per frame, each SE's detections in SE order; clutter goes to the SEs
    # round-robin, so with more than one SE this is not the row order.
    rows = [
        row
        for t in range(scenario.t_steps)
        for s in range(len(se_poses))
        for row in np.flatnonzero((rz.frame_of == t) & (rz.se_idx == s))
    ]
    assert (rows != list(range(len(rows)))) == (len(se_poses) > 1)
    (raw,) = raw_records(store)
    assert raw.payload == realization_detections(scenario, rz, np.array(rows))


def test_raw_archive_and_reopen_build_no_detection_objects(flow_scenario, monkeypatch, tmp_path):
    # Generation builds WorldPoints for the truth; it runs before the patches.
    rz = generate_realization(flow_scenario, realization_rng(flow_scenario.seed, 0))
    monkeypatch.setattr(callflow, "generate_realization", lambda scenario, rng: rz)

    def boom(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built for the raw archive")

    monkeypatch.setattr(WorldPoint, "__init__", boom)
    path = tmp_path / "store.jsonl"
    run = run_flow(flow_scenario, SdsfStore(path), archive_raw=True)
    assert run.result is not None and run.result.data_source == "live-only"
    everything = SensingContext(Rect(0.0, 0.0, 120.0, 120.0), (0, 10_000), "vehicle")
    raw = [r for r in SdsfStore(path).fetch(everything) if r.kind == "raw"]
    assert len(raw) == 1 and len(raw[0].payload) == len(rz.xy)


def test_finished_request_is_freed_without_cyclic_gc(flow_scenario, monkeypatch):
    realizations = []
    generate = callflow.generate_realization

    def tracked_generate(scenario, rng):
        rz = generate(scenario, rng)
        realizations.append(weakref.ref(rz))
        return rz

    monkeypatch.setattr(callflow, "generate_realization", tracked_generate)
    gc.collect()
    gc.disable()
    try:
        run = run_flow(flow_scenario, SdsfStore(), archive_raw=True)
        assert run.result is not None
        assert len(realizations) == 1 and realizations[0]() is None
    finally:
        gc.enable()


def test_each_request_fetches_from_the_store_once(monkeypatch, tmp_path):
    # Step 13 answers with the records that step 7's metrics preview fetched.
    fetched: list[list[int]] = []
    fetch = SdsfStore.fetch

    def counting_fetch(self, ctx, max_age=math.inf):
        records = fetch(self, ctx, max_age)
        fetched[-1].append(len(records))
        return records

    monkeypatch.setattr(SdsfStore, "fetch", counting_fetch)
    cfg = parse_config({})
    scenario = build_scenario(cfg.scenario)
    sources = []
    for run in range(3):
        fetched.append([])
        report = demo_callflow(cfg, scenario, tmp_path / f"{run}.jsonl", tmp_path / "demo.store")
        sources.append(report.run.result.data_source)
    assert sources == ["live+historical", "historical-only", "historical-only"]
    assert fetched == [[1], [3], [5]]
