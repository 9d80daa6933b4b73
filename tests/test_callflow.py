import gc
import math
import weakref

import numpy as np
import pytest

from sensefuse import callflow
from sensefuse.callflow import (
    Kpi,
    Message,
    MessageBus,
    PolicyControl,
    PolicyDecision,
    PolicyRules,
    SdsfFrontend,
    SensingEntity,
    SensingFunction,
    SensingWorld,
    ServiceConsumer,
    ServiceRequest,
    SfPhase,
    evaluate_policy,
    kpi_verdict,
    run_call_flow,
    run_sensing_task,
    write_trace,
)
from sensefuse.errors import NoSensingEntityError, ProtocolError
from sensefuse.fusion import FilterConfig
from sensefuse.geometry import Rect, StaticMap, WorldPoint
from sensefuse.measurement import Cov2, WorldDetection
from sensefuse.metrics import MetricResult
from sensefuse.scenario import (
    ClutterModel,
    Frame,
    ScenarioConfig,
    build_scenario,
    generate_frames,
    generate_realization,
    realization_rng,
)
from sensefuse.sdsf_store import SdsfStore, SensingContext

from oracles import read_trace

SCENARIO_CFG = ScenarioConfig(t_steps=20, clutter=ClutterModel(lambda_fa=10.0), seed=3)

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


def make_request(**overrides) -> ServiceRequest:
    defaults = dict(
        kpi=Kpi(pd_min=0.0, fa_max=math.inf),
        historical_consent=True,
        max_age=1000,
        requester_kind="trusted-app",
        target_type="vehicle",
        area=Rect(0.0, 0.0, 120.0, 120.0),
    )
    defaults.update(overrides)
    return ServiceRequest(**defaults)


def preseed_west_half(store: SdsfStore) -> None:
    west = Rect(0.0, 0.0, 60.0, 120.0)
    ctx = SensingContext(area=west, time_window=(0, 10_000), target_type="unknown")
    payload = StaticMap((Rect(20.0, 45.0, 55.0, 75.0),), west)
    store.store("stid-preseed", "processed", ctx, payload, created_at=0, aging_policy=100_000)


def steps_and_variants(run) -> list[tuple[int, str]]:
    return [(e.step, e.variant) for e in run.trace]


def run_flow(scenario, store, request=None, rules=PolicyRules(), fc=None, **kwargs):
    return run_call_flow(
        scenario,
        request or make_request(),
        rules,
        store,
        fc or FilterConfig(mask_margin_g=2.0, gate_g_det=3.0),
        **kwargs,
    )


# -- golden traces ----------------------------------------------------------------


def test_trace_partial_availability_golden(flow_scenario):
    store = SdsfStore()
    preseed_west_half(store)
    run = run_flow(flow_scenario, store)
    assert steps_and_variants(run) == RUN1_TRACE
    assert run.result is not None and run.result.data_source == "live+historical"
    assert run.abort_reason is None
    assert run.stid == "stid-000000-01"
    assert run.phases[-1] == SfPhase.DONE
    assert run.trace[0].sender == "se-0" and run.trace[1].sender == "se-1"


def test_trace_policy_deny_golden(flow_scenario):
    store = SdsfStore()
    rules = PolicyRules(prohibited_areas=(Rect(0.0, 0.0, 120.0, 120.0),))
    run = run_flow(flow_scenario, store, rules=rules)
    assert steps_and_variants(run) == DENY_TRACE
    assert run.result is None
    assert run.abort_reason is not None and "policy denied" in run.abort_reason
    assert run.phases[-1] == SfPhase.ABORTED
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


def test_existing_archive_below_kpi_forces_live_collection(flow_scenario):
    store = SdsfStore()
    run_flow(flow_scenario, store)
    request = make_request(kpi=Kpi(pd_min=1.1, fa_max=math.inf))
    second = run_flow(flow_scenario, store, request=request)
    assert second.result is not None
    assert second.result.data_source == "live+historical"
    assert second.result.kpi_satisfied is False
    assert (10, "SensingDataRequest") in steps_and_variants(second)


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
    write_trace(run.trace, path)
    assert read_trace(path) == list(run.trace)


# -- policy -------------------------------------------------------------------------


def test_policy_permit_without_rules():
    decision = evaluate_policy(Rect(0.0, 0.0, 10.0, 10.0), "trusted-app", PolicyRules())
    assert decision.verdict == "permit"
    assert decision.obligations == ()
    assert decision.permits()


def test_policy_denies_prohibited_overlap():
    rules = PolicyRules(prohibited_areas=(Rect(5.0, 5.0, 15.0, 15.0),))
    decision = evaluate_policy(Rect(0.0, 0.0, 10.0, 10.0), "trusted-app", rules)
    assert decision.verdict == "deny"
    assert not decision.permits()


def test_policy_charging_obligations_attach():
    rules = PolicyRules(charging_rules=("per-task-tariff",))
    decision = evaluate_policy(Rect(0.0, 0.0, 10.0, 10.0), "trusted-app", rules)
    assert decision.verdict == "permit-with-obligations"
    assert decision.obligations == ("per-task-tariff",)
    assert decision.permits()


def test_kpi_verdict_rejects_nan():
    nan_metrics = MetricResult(pd_per_target={}, pd_avg=math.nan, fa_avg=0.0)
    assert not kpi_verdict(nan_metrics, Kpi(pd_min=0.0, fa_max=math.inf))


# -- consent ------------------------------------------------------------------------


def test_no_consent_runs_live_only_unmasked(flow_scenario):
    store = SdsfStore()
    preseed_west_half(store)
    request = make_request(historical_consent=False)
    run = run_flow(flow_scenario, store, request=request)
    assert run.result is not None
    assert run.result.data_source == "live-only"
    assert run.result.mask_enabled is False
    # No consent means the store read side is never touched.
    variants = [e.variant for e in run.trace]
    assert "AvailabilityQuery" not in variants
    assert "HistoricalDataRequest" not in variants

    # Identical metrics to gating the same realization without any mask.
    world = SensingWorld(flow_scenario)
    expected = run_sensing_task(
        "stid-x",
        world,
        np.arange(len(world.realization.xy)),
        None,
        FilterConfig(mask_margin_g=2.0, gate_g_det=3.0, mask_enabled=False),
        request.kpi,
        "live-only",
    )
    assert run.result.metrics == expected.metrics


def test_consent_with_map_lowers_false_alarms(flow_scenario):
    masked_store = SdsfStore()
    preseed_west_half(masked_store)
    masked = run_flow(flow_scenario, masked_store)
    unmasked = run_flow(
        flow_scenario, SdsfStore(), request=make_request(historical_consent=False)
    )
    assert masked.result is not None and unmasked.result is not None
    # Same realization, same gate; the historical map strictly removes clutter.
    assert masked.result.metrics.fa_avg < unmasked.result.metrics.fa_avg


def test_revoked_consent_aborts_at_next_message(flow_scenario):
    bus = MessageBus()
    world = SensingWorld(flow_scenario)
    sf = SensingFunction(bus, world, FilterConfig(), epoch=0, aging_policy=100)
    consumer = ServiceConsumer(make_request())
    pcf = PolicyControl(PolicyRules())
    sdsf = SdsfFrontend(SdsfStore())

    def policy_then_revoke(msg):
        out = pcf.handle(msg)
        sf.revoke_consent()  # withdrawn while the decision is in flight
        return out

    bus.register_actor("sf", sf.handle)
    bus.register_actor("ssc", consumer.handle)
    bus.register_actor("pcf", policy_then_revoke)
    bus.register_actor("sdsf", sdsf.handle)
    for se_id in flow_scenario.se_ids:
        bus.register_actor(se_id, SensingEntity(se_id, world).handle)
        sf.register_se(se_id)

    bus.post(consumer.initial_message())
    bus.run()

    assert consumer.result is None
    assert consumer.abort_reason == "historical-data consent revoked"
    assert sf.phase == SfPhase.ABORTED


# -- component behavior ---------------------------------------------------------------


def test_duplicate_se_registration_rejected(flow_scenario):
    bus = MessageBus()
    world = SensingWorld(flow_scenario)
    sf = SensingFunction(bus, world, FilterConfig(), epoch=0, aging_policy=100)
    sf.register_se("se-0")
    with pytest.raises(ValueError, match="already registered"):
        sf.register_se("se-0")
    assert list(sf.registered_ses) == ["se-0"]


def test_live_plan_without_ses_raises(flow_scenario):
    bus = MessageBus()
    world = SensingWorld(flow_scenario)
    sf = SensingFunction(bus, world, FilterConfig(), epoch=0, aging_policy=100)
    request = make_request(historical_consent=False)
    sf.handle(Message("ServiceRequest", "ssc", "sf", 2, None, request))
    with pytest.raises(NoSensingEntityError):
        sf.handle(Message("PolicyDecision", "pcf", "sf", 5, sf.stid, PolicyDecision("permit")))


def test_out_of_phase_message_raises(flow_scenario):
    bus = MessageBus()
    world = SensingWorld(flow_scenario)
    sf = SensingFunction(bus, world, FilterConfig(), epoch=0, aging_policy=100)
    with pytest.raises(ProtocolError):
        sf.handle(Message("PolicyDecision", "pcf", "sf", 5, None, PolicyDecision("permit")))
    with pytest.raises(ProtocolError):
        sf.handle(Message("NoSuchVariant", "pcf", "sf", 5, None, None))


def test_bus_rejects_unknown_receiver():
    bus = MessageBus()
    bus.post(Message("Ping", "a", "nobody", 1, None, None))
    with pytest.raises(ProtocolError, match="unknown actor"):
        bus.run()


def test_kpi_miss_still_delivers_result(flow_scenario):
    store = SdsfStore()
    request = make_request(kpi=Kpi(pd_min=1.1, fa_max=0.0))
    run = run_flow(flow_scenario, store, request=request)
    assert run.result is not None
    assert run.result.kpi_satisfied is False
    assert run.phases[-1] == SfPhase.DONE


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


def run_with_ses(scenario, se_order, *, archive_raw):
    """One live call flow with only ``se_order`` registered, in that order."""
    store = SdsfStore()
    bus = MessageBus()
    world = SensingWorld(scenario)
    sf = SensingFunction(
        bus, world, FilterConfig(), epoch=0, aging_policy=100, archive_raw=archive_raw
    )
    consumer = ServiceConsumer(make_request())
    bus.register_actor("sf", sf.handle)
    bus.register_actor("ssc", consumer.handle)
    bus.register_actor("pcf", PolicyControl(PolicyRules()).handle)
    bus.register_actor("sdsf", SdsfFrontend(store).handle)
    for se_id in se_order:
        bus.register_actor(se_id, SensingEntity(se_id, world).handle)
        sf.register_se(se_id)
    bus.post(consumer.initial_message())
    bus.run()
    assert consumer.result is not None and consumer.result.data_source == "live-only"
    everything = SensingContext(Rect(0.0, 0.0, 120.0, 120.0), (0, 10_000), "vehicle")
    raw = [r for r in store.fetch(everything) if r.kind == "raw"]
    return sf, raw


def test_live_request_without_raw_archive_builds_no_detection_objects(
    flow_scenario, monkeypatch
):
    def boom(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on a live request")

    for cls in (WorldDetection, Cov2, Frame):
        monkeypatch.setattr(cls, "__init__", boom)
    sf, raw = run_with_ses(flow_scenario, flow_scenario.se_ids, archive_raw=False)
    assert raw == []
    assert len(sf.rows) == len(sf.world.realization.xy)


def test_raw_archive_builds_pooled_objects_once(flow_scenario, monkeypatch):
    detections = _count_constructions(monkeypatch, WorldDetection)
    covariances = _count_constructions(monkeypatch, Cov2)
    merges = [0]
    merge = SensingFunction._merge_reports

    def counting_merge(self):
        merges[0] += 1
        return merge(self)

    monkeypatch.setattr(SensingFunction, "_merge_reports", counting_merge)
    sf, raw = run_with_ses(flow_scenario, flow_scenario.se_ids, archive_raw=True)
    assert len(raw) == 1
    assert merges[0] == 1
    assert detections[0] == covariances[0] == 0
    assert len(raw[0].payload) == len(sf.rows)


@pytest.mark.parametrize("se_order", [("se-1", "se-0"), ("se-1",), ("se-0",)])
def test_raw_record_pools_registered_ses_in_registration_order(flow_scenario, se_order):
    _, raw = run_with_ses(flow_scenario, se_order, archive_raw=True)
    frames = generate_frames(flow_scenario, realization_rng(flow_scenario.seed, 0))
    # Per frame, each registered SE's detections, in registration order.
    expected = [
        d
        for frame in frames
        for se_id in se_order
        for d in frame.detections
        if d.source_se == se_id
    ]
    assert len(raw) == 1
    assert raw[0].payload.detections() == expected


def test_raw_archive_and_reopen_build_no_detection_objects(flow_scenario, monkeypatch, tmp_path):
    # Generation builds WorldPoints for the truth; it runs before the patches.
    rz = generate_realization(flow_scenario, realization_rng(flow_scenario.seed, 0))
    monkeypatch.setattr(callflow, "generate_realization", lambda scenario, rng: rz)

    def boom(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built for the raw archive")

    for cls in (WorldDetection, Cov2, WorldPoint):
        monkeypatch.setattr(cls, "__init__", boom)
    path = tmp_path / "store.jsonl"
    run = run_flow(flow_scenario, SdsfStore(path), archive_raw=True)
    assert run.result is not None and run.result.data_source == "live-only"
    everything = SensingContext(Rect(0.0, 0.0, 120.0, 120.0), (0, 10_000), "vehicle")
    raw = [r for r in SdsfStore(path).fetch(everything) if r.kind == "raw"]
    assert len(raw) == 1 and len(raw[0].payload) == len(rz.xy)


def test_finished_request_is_freed_without_cyclic_gc(flow_scenario, monkeypatch):
    worlds = []

    class TrackedWorld(SensingWorld):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(weakref.ref(self))

    monkeypatch.setattr(callflow, "SensingWorld", TrackedWorld)
    gc.collect()
    gc.disable()
    try:
        run = run_flow(flow_scenario, SdsfStore(), archive_raw=True)
        assert run.result is not None
        assert len(worlds) == 1 and worlds[0]() is None
    finally:
        gc.enable()
