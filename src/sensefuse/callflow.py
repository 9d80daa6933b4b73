"""Sensing-service call flow.

Executable model of the sensing service procedure: a consumer asks the
sensing function (SF) for a detection service with KPI targets; the SF admits
the request, clears it with policy control (PCF), checks the sensing data
storage function (SDSF) for reusable historical data, tasks sensing entities
(SEs) for live data when needed, fetches fresh historical context, fuses, and
reports, archiving its updated knowledge back to the SDSF.

The numbered step families (1..16):

 1 SE registration                      9 sensing task group created
 2 ServiceRequest (consumer to SF)     10 SensingDataRequest (SF to SEs)
 3 ServiceAck with allocated STID      11 SensingDataReport (SEs to SF)
 4 PolicyRequest (SF to PCF)           12 HistoricalDataRequest (SF to SDSF)
 5 PolicyDecision (PCF to SF)          13 HistoricalDataResponse
 6 AvailabilityQuery (SF to SDSF)      14 fusion of live and historical data
 7 AvailabilityResponse                15 SensingResult (SF to consumer)
 8 data-plan decision                  16 StorageUpdate (SF to SDSF)

Messages ride a single-threaded FIFO bus, so every run with the same inputs
produces the same trace byte for byte.  Steps 8, 9 and 14 are internal SF
actions and appear in the trace as self-addressed events.
"""
from __future__ import annotations

import json
import logging
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import NoSensingEntityError, ProtocolError
from .fusion import FilterConfig, detection_distances, fused_metrics
from .geometry import Rect, StaticMap
from .metrics import MetricResult
from .scenario import Realization, Scenario, generate_realization, realization_detections
from .scenario import realization_rng
from .scenario import generate_frames  # noqa: F401  re-export; perfbench's tests bind it here
from .sdsf_store import Availability, SdsfStore, SensingContext, SensingRecord

log = logging.getLogger(__name__)

Stid = str

SF_NAME = "sf"
SSC_NAME = "ssc"
PCF_NAME = "pcf"
SDSF_NAME = "sdsf"


# -- message vocabulary ------------------------------------------------------


@dataclass(frozen=True)
class Kpi:
    """Service-level targets the consumer asks for."""

    pd_min: float
    fa_max: float


@dataclass(frozen=True)
class ServiceRequest:
    """Step-2 payload: what to sense, how well, and whether history may be used."""

    kpi: Kpi
    historical_consent: bool
    max_age: int
    target_type: str
    area: Rect


@dataclass(frozen=True)
class PolicyDecision:
    verdict: str  # permit | deny
    reason: str = ""

    def permits(self) -> bool:
        return self.verdict == "permit"


@dataclass(frozen=True)
class PolicyRules:
    """PCF rule table: spatial prohibitions."""

    prohibited_areas: tuple[Rect, ...] = ()


@dataclass(frozen=True)
class SeReport:
    """Step-11 payload: one SE's detections as world realization rows."""

    se_id: str
    epoch: int
    live: tuple[int, ...]


@dataclass(frozen=True)
class SensingResult:
    """Step-15 payload: fused metrics plus how they were obtained."""

    stid: Stid
    metrics: MetricResult
    kpi_satisfied: bool
    mask_enabled: bool
    data_source: str  # live-only | live+historical | historical-only


@dataclass(frozen=True)
class Message:
    variant: str
    sender: str
    receiver: str
    step: int
    stid: Stid | None = None
    payload: object = None


@dataclass(frozen=True)
class TraceEvent:
    step: int
    sender: str
    receiver: str
    variant: str
    stid: Stid | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "step": self.step,
                "sender": self.sender,
                "receiver": self.receiver,
                "variant": self.variant,
                "stid": self.stid,
            }
        )


def write_trace(events: Sequence[TraceEvent], path: str | Path) -> None:
    """Write the trace as line-delimited JSON."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(ev.to_json() + "\n")


# -- policy ------------------------------------------------------------------


def evaluate_policy(area: Rect, rules: PolicyRules) -> PolicyDecision:
    """Rule-table policy check for a sensing request over ``area``.

    Requests over any prohibited area are denied; all others are permitted.
    """
    for prohibited in rules.prohibited_areas:
        if area.intersects(prohibited):
            return PolicyDecision(
                verdict="deny",
                reason=f"requested area intersects prohibited zone {prohibited.as_tuple()}",
            )
    return PolicyDecision(verdict="permit")


# -- fusion task -------------------------------------------------------------


def run_sensing_task(
    stid: Stid,
    world: SensingWorld,
    rows: np.ndarray,
    mask_map: StaticMap | None,
    fc: FilterConfig,
    kpi: Kpi,
    data_source: str,
) -> SensingResult:
    """Fuse the world's detections at ``rows`` under the given mask and gate.

    The mask is applied only when enabled and a non-empty map is actually
    available; otherwise the run degrades to the live-only baseline.  The KPI
    verdict never blocks the result: an unsatisfiable target simply reports
    ``kpi_satisfied=False``.
    """
    mask_on = fc.mask_enabled and mask_map is not None and not mask_map.empty
    rz, mask = world.realization, mask_map if mask_on else None
    ids = [track.id for track in world.scenario.tracks]
    fd = detection_distances(rz.xy[rows], rz.frame_of[rows], rz.truth_xy, rz.truth_in, ids, mask)
    metrics = fused_metrics(fd, fc)
    return SensingResult(
        stid=stid,
        metrics=metrics,
        kpi_satisfied=kpi_verdict(metrics, kpi),
        mask_enabled=mask_on,
        data_source=data_source,
    )


def kpi_verdict(metrics: MetricResult, kpi: Kpi) -> bool:
    """True when the fused metrics meet the requested targets (NaN never does)."""
    return (
        not math.isnan(metrics.pd_avg)
        and metrics.pd_avg >= kpi.pd_min
        and metrics.fa_avg <= kpi.fa_max
    )


# -- bus ---------------------------------------------------------------------


class MessageBus:
    """Deterministic single-threaded FIFO message loop with a trace."""

    def __init__(self) -> None:
        self._queue: deque[Message] = deque()
        self._actors: dict[str, Callable[[Message], list[Message]]] = {}
        self.trace: list[TraceEvent] = []

    def register_actor(self, name: str, handler: Callable[[Message], list[Message]]) -> None:
        if name in self._actors:
            raise ValueError(f"actor {name!r} already registered on the bus")
        self._actors[name] = handler

    def post(self, msg: Message) -> None:
        self.trace.append(
            TraceEvent(msg.step, msg.sender, msg.receiver, msg.variant, msg.stid)
        )
        self._queue.append(msg)

    def note(self, step: int, actor: str, variant: str, stid: Stid | None) -> None:
        """Record an internal action as a self-addressed trace event."""
        self.record(step, actor, actor, variant, stid)

    def record(
        self, step: int, sender: str, receiver: str, variant: str, stid: Stid | None
    ) -> None:
        """Record a trace event that is not carried by a queued message."""
        self.trace.append(TraceEvent(step, sender, receiver, variant, stid))

    def close(self) -> None:
        """Drop the actors.

        The SF holds the bus and the bus holds the SF's handler, so closing
        breaks that cycle and frees a finished request without a cyclic GC.
        """
        self._actors.clear()

    def run(self) -> None:
        while self._queue:
            msg = self._queue.popleft()
            handler = self._actors.get(msg.receiver)
            if handler is None:
                raise ProtocolError(f"message {msg.variant} addressed to unknown actor {msg.receiver!r}")
            for out in handler(msg):
                self.post(out)


# -- world -------------------------------------------------------------------


class SensingWorld:
    """Ground truth shared by the SEs and the evaluation.

    One realization of the scenario, generated on first use.  SEs observe
    their own detections from it; the SF's metric evaluation reads the true
    target positions, which only a simulation can provide.
    """

    def __init__(self, scenario: Scenario, realization: int = 0):
        self.scenario = scenario
        self._index = realization

    @cached_property
    def realization(self) -> Realization:
        return generate_realization(self.scenario, realization_rng(self.scenario.seed, self._index))

    def rows_for(self, se_id: str) -> tuple[int, ...]:
        """Realization rows of the detections ``se_id`` made, in row order."""
        s = self.scenario.se_ids.index(se_id)
        return tuple(np.flatnonzero(self.realization.se_idx == s).tolist())


# -- actors ------------------------------------------------------------------


class SensingEntity:
    """A registered sensor.  Reports its detections for the requested epoch."""

    def __init__(self, se_id: str, world: SensingWorld):
        self.se_id = se_id
        self._world = world

    def handle(self, msg: Message) -> list[Message]:
        if msg.variant != "SensingDataRequest":
            raise ProtocolError(f"SE {self.se_id} cannot handle {msg.variant}")
        live = self._world.rows_for(self.se_id)
        report = SeReport(se_id=self.se_id, epoch=msg.payload, live=live)
        return [
            Message(
                variant="SensingDataReport",
                sender=self.se_id,
                receiver=SF_NAME,
                step=11,
                stid=msg.stid,
                payload=report,
            )
        ]


class PolicyControl:
    """PCF front: answers policy requests from its static rule table."""

    def __init__(self, rules: PolicyRules):
        self.rules = rules

    def handle(self, msg: Message) -> list[Message]:
        if msg.variant != "PolicyRequest":
            raise ProtocolError(f"PCF cannot handle {msg.variant}")
        decision = evaluate_policy(msg.payload, self.rules)
        return [
            Message(
                variant="PolicyDecision",
                sender=PCF_NAME,
                receiver=SF_NAME,
                step=5,
                stid=msg.stid,
                payload=decision,
            )
        ]


class SdsfFrontend:
    """Message front-end over the sensing data store.

    The records fetched for step 7's metrics preview answer step 12's request
    for the same ``(context, max_age)``; a ``StorageUpdate`` drops them.
    """

    def __init__(self, store: SdsfStore):
        self.store = store
        self._fetched: tuple[tuple[SensingContext, float], list[SensingRecord]] | None = None

    def handle(self, msg: Message) -> list[Message]:
        if msg.variant == "AvailabilityQuery":
            ctx, max_age = msg.payload
            availability = self.store.query_availability(ctx)
            preview = self._metrics_preview(self._fetch(ctx, max_age))
            return [
                Message(
                    variant="AvailabilityResponse",
                    sender=SDSF_NAME,
                    receiver=SF_NAME,
                    step=7,
                    stid=msg.stid,
                    payload=(availability, preview),
                )
            ]
        if msg.variant == "HistoricalDataRequest":
            records = self._fetch(*msg.payload)
            return [
                Message(
                    variant="HistoricalDataResponse",
                    sender=SDSF_NAME,
                    receiver=SF_NAME,
                    step=13,
                    stid=msg.stid,
                    payload=tuple(records),
                )
            ]
        if msg.variant == "StorageUpdate":
            created_at, aging_policy, items = msg.payload
            self._fetched = None
            self.store.set_now(created_at)
            for kind, context, payload, content in items:
                metadata = {"source": "sensing-run", "content": content}
                self.store.store(
                    msg.stid, kind, context, payload, created_at, aging_policy, metadata
                )
            return []
        raise ProtocolError(f"SDSF cannot handle {msg.variant}")

    def _fetch(self, ctx: SensingContext, max_age: float) -> list[SensingRecord]:
        if self._fetched is None or self._fetched[0] != (ctx, max_age):
            self._fetched = ((ctx, max_age), self.store.fetch(ctx, max_age))
        return self._fetched[1]

    @staticmethod
    def _metrics_preview(records: list[SensingRecord]) -> MetricResult | None:
        for record in records:
            if record.kind == "high-level" and isinstance(record.payload, MetricResult):
                return record.payload
        return None


class ServiceConsumer:
    """The requesting side: sends the service request, collects the outcome."""

    def __init__(self, request: ServiceRequest):
        self.request = request
        self.stid: Stid | None = None
        self.result: SensingResult | None = None
        self.abort_reason: str | None = None

    def initial_message(self) -> Message:
        return Message(
            variant="ServiceRequest",
            sender=SSC_NAME,
            receiver=SF_NAME,
            step=2,
            stid=None,
            payload=self.request,
        )

    def handle(self, msg: Message) -> list[Message]:
        if msg.variant == "ServiceAck":
            self.stid = msg.stid
            return []
        if msg.variant == "SensingResult":
            self.result = msg.payload
            return []
        if msg.variant == "ServiceAbort":
            self.abort_reason = msg.payload
            return []
        raise ProtocolError(f"consumer cannot handle {msg.variant}")


class SfPhase(Enum):
    IDLE = "idle"
    REGISTERED = "registered"
    REQUESTED = "requested"
    POLICY_PENDING = "policy-pending"
    AVAILABILITY_PENDING = "availability-pending"
    TASKING_SES = "tasking-ses"
    COLLECTING_LIVE = "collecting-live"
    FETCHING_HISTORICAL = "fetching-historical"
    FUSING = "fusing"
    REPORTING = "reporting"
    ARCHIVING = "archiving"
    DONE = "done"
    ABORTED = "aborted"


class SensingFunction:
    """The SF state machine driving one sensing task end to end.

    Control and processing sit together here (one merged function); the
    split-out variant would talk to a separate processing function over yet
    another interface without changing any observable behavior of this model.
    """

    def __init__(
        self,
        bus: MessageBus,
        world: SensingWorld,
        fc: FilterConfig,
        *,
        epoch: int,
        aging_policy: int,
        archive_raw: bool = False,
    ):
        self.bus = bus
        self.world = world
        self.fc = fc
        self.epoch = epoch
        self.aging_policy = aging_policy
        self.archive_raw = archive_raw

        self.phase = SfPhase.IDLE
        self.phase_history: list[SfPhase] = [SfPhase.IDLE]
        self.registered_ses: list[str] = []
        self.stid: Stid | None = None
        self.request: ServiceRequest | None = None
        self.policy: PolicyDecision | None = None
        self.availability: Availability | None = None
        self.metrics_preview: MetricResult | None = None
        self.plan: str | None = None
        self.reports: dict[str, SeReport] = {}
        self.historical: tuple[SensingRecord, ...] = ()
        self.rows: np.ndarray | None = None  # pooled realization rows, set at fusion
        self.result: SensingResult | None = None
        self._stid_seq = 0

    # -- lifecycle -------------------------------------------------------------

    def register_se(self, se_id: str) -> None:
        """Step 1: record an SE.  Duplicate ids are rejected."""
        if se_id in self.registered_ses:
            raise ValueError(f"SE id {se_id!r} is already registered")
        self.registered_ses.append(se_id)
        self.bus.record(1, se_id, SF_NAME, "SeRegistration", None)
        if self.phase == SfPhase.IDLE:
            self._advance(SfPhase.REGISTERED)

    # -- message handling --------------------------------------------------------

    def handle(self, msg: Message) -> list[Message]:
        if msg.variant == "ServiceRequest":
            return self._on_service_request(msg)
        if msg.variant == "PolicyDecision":
            return self._on_policy_decision(msg)
        if msg.variant == "AvailabilityResponse":
            return self._on_availability_response(msg)
        if msg.variant == "SensingDataReport":
            return self._on_sensing_report(msg)
        if msg.variant == "HistoricalDataResponse":
            return self._on_historical_response(msg)
        raise ProtocolError(f"SF cannot handle {msg.variant} in phase {self.phase.value}")

    def _on_service_request(self, msg: Message) -> list[Message]:
        self._require_phase(SfPhase.IDLE, SfPhase.REGISTERED)
        self.request = msg.payload
        self._stid_seq += 1
        self.stid = f"stid-{self.epoch:06d}-{self._stid_seq:02d}"
        self._advance(SfPhase.REQUESTED)
        # Admission against the KPI is an optimistic stub: feasibility is only
        # judged once data exists, and the final verdict travels with the result.
        ack = Message(
            variant="ServiceAck",
            sender=SF_NAME,
            receiver=SSC_NAME,
            step=3,
            stid=self.stid,
            payload={"admitted": True},
        )
        policy_req = Message(
            variant="PolicyRequest",
            sender=SF_NAME,
            receiver=PCF_NAME,
            step=4,
            stid=self.stid,
            payload=self.request.area,
        )
        self._advance(SfPhase.POLICY_PENDING)
        return [ack, policy_req]

    def _on_policy_decision(self, msg: Message) -> list[Message]:
        self._require_phase(SfPhase.POLICY_PENDING)
        assert self.request is not None
        self.policy = msg.payload
        if not self.policy.permits():
            return self._abort(f"policy denied: {self.policy.reason}", step=5)
        if self.request.historical_consent:
            self._advance(SfPhase.AVAILABILITY_PENDING)
            return [
                Message(
                    variant="AvailabilityQuery",
                    sender=SF_NAME,
                    receiver=SDSF_NAME,
                    step=6,
                    stid=self.stid,
                    payload=(self._task_context(), self.request.max_age),
                )
            ]
        # No consent: live-only without touching the SDSF on the read side.
        self.plan = "live-only"
        self.bus.note(8, SF_NAME, "DataPlanDecision", self.stid)
        return self._task_ses()

    def _on_availability_response(self, msg: Message) -> list[Message]:
        self._require_phase(SfPhase.AVAILABILITY_PENDING)
        assert self.request is not None
        self.availability, self.metrics_preview = msg.payload
        if (
            self.availability.status == "exists"
            and self.metrics_preview is not None
            and kpi_verdict(self.metrics_preview, self.request.kpi)
        ):
            # Complete coverage and the archived quality already meets the
            # KPI: history alone suffices, skip steps 9..11.
            self.plan = "historical-only"
            self.bus.note(8, SF_NAME, "DataPlanDecision", self.stid)
            return self._fetch_historical()
        self.plan = "live+historical" if self.availability.status != "missing" else "live-only"
        self.bus.note(8, SF_NAME, "DataPlanDecision", self.stid)
        return self._task_ses()

    def _task_ses(self) -> list[Message]:
        if not self.registered_ses:
            raise NoSensingEntityError(
                "live sensing data is required but no sensing entity is registered"
            )
        self._advance(SfPhase.TASKING_SES)
        self.bus.note(9, SF_NAME, "TaskGroupCreated", self.stid)
        out = [
            Message(
                variant="SensingDataRequest",
                sender=SF_NAME,
                receiver=se_id,
                step=10,
                stid=self.stid,
                payload=self.epoch,
            )
            for se_id in self.registered_ses
        ]
        self._advance(SfPhase.COLLECTING_LIVE)
        return out

    def _on_sensing_report(self, msg: Message) -> list[Message]:
        self._require_phase(SfPhase.COLLECTING_LIVE)
        report: SeReport = msg.payload
        self.reports[report.se_id] = report
        if set(self.reports) != set(self.registered_ses):
            return []
        if self.plan == "live+historical":
            return self._fetch_historical()
        return self._fuse()

    def _fetch_historical(self) -> list[Message]:
        assert self.request is not None
        self._advance(SfPhase.FETCHING_HISTORICAL)
        return [
            Message(
                variant="HistoricalDataRequest",
                sender=SF_NAME,
                receiver=SDSF_NAME,
                step=12,
                stid=self.stid,
                payload=(self._task_context(), self.request.max_age),
            )
        ]

    def _on_historical_response(self, msg: Message) -> list[Message]:
        self._require_phase(SfPhase.FETCHING_HISTORICAL)
        self.historical = msg.payload
        return self._fuse()

    def _fuse(self) -> list[Message]:
        assert self.request is not None and self.stid is not None and self.plan is not None
        self._advance(SfPhase.FUSING)
        if self.plan == "historical-only":
            assert self.metrics_preview is not None
            result = SensingResult(
                stid=self.stid,
                metrics=self.metrics_preview,
                kpi_satisfied=kpi_verdict(self.metrics_preview, self.request.kpi),
                mask_enabled=False,
                data_source="historical-only",
            )
        else:
            self.rows = self._merge_reports()
            # Without consent nothing was fetched, so there is no mask.
            mask_map = self._historical_mask()
            result = run_sensing_task(
                self.stid, self.world, self.rows, mask_map, self.fc, self.request.kpi, self.plan
            )
        self.result = result
        self.bus.note(14, SF_NAME, "FusionCompleted", self.stid)
        self._advance(SfPhase.REPORTING)
        report = Message(
            variant="SensingResult",
            sender=SF_NAME,
            receiver=SSC_NAME,
            step=15,
            stid=self.stid,
            payload=result,
        )
        self._advance(SfPhase.ARCHIVING)
        update = Message(
            variant="StorageUpdate",
            sender=SF_NAME,
            receiver=SDSF_NAME,
            step=16,
            stid=self.stid,
            payload=self._archive_items(result),
        )
        self._advance(SfPhase.DONE)
        return [report, update]

    # -- helpers -----------------------------------------------------------------

    def _task_context(self) -> SensingContext:
        assert self.request is not None
        t_steps = self.world.scenario.t_steps
        return SensingContext(
            area=self.request.area,
            time_window=(self.epoch, self.epoch + t_steps),
            target_type=self.request.target_type,
        )

    def _merge_reports(self) -> np.ndarray:
        """Pool the SE reports into realization rows, frame by frame.

        Within a frame, rows follow SE registration order.
        """
        rows: list[int] = []
        for se_id in self.registered_ses:
            rows.extend(self.reports[se_id].live)
        pooled = np.array(rows, dtype=np.intp)
        return pooled[np.argsort(self.world.realization.frame_of[pooled], kind="stable")]

    def _historical_mask(self) -> StaticMap | None:
        # Archived maps may cover another area; keep the rects that reach these bounds.
        bounds = self.world.scenario.bounds
        rects: list[Rect] = []
        for record in self.historical:
            if isinstance(record.payload, StaticMap):
                rects.extend(r for r in record.payload.rects if r.intersects(bounds))
        if not rects:
            return None
        return StaticMap(tuple(dict.fromkeys(rects)), bounds)

    def _archive_items(self, result: SensingResult) -> tuple[int, int, tuple[tuple, ...]]:
        """Step-16 ``(created_at, aging_policy, items)``: the refreshed static map
        and the run's fused metrics, each item ``(kind, context, payload, content)``.

        With ``archive_raw``, a live run also archives its pooled detections
        as :class:`DetectionColumns`, in fusion order.
        """
        assert self.request is not None
        end = self.epoch + self.world.scenario.t_steps
        window = (end, end + self.aging_policy)
        map_ctx = SensingContext(
            area=self.world.scenario.bounds,
            time_window=window,
            target_type="unknown",
        )
        metrics_ctx = SensingContext(
            area=self.request.area,
            time_window=window,
            target_type=self.request.target_type,
        )
        items = [
            ("processed", map_ctx, self.world.scenario.static_map, "static-map"),
            ("high-level", metrics_ctx, result.metrics, "fused-metrics"),
        ]
        if self.archive_raw and result.data_source != "historical-only":
            detections = realization_detections(
                self.world.scenario, self.world.realization, self.rows
            )
            items.append(("raw", metrics_ctx, detections, "pooled-detections"))
        return end, self.aging_policy, tuple(items)

    def _abort(self, reason: str, step: int) -> list[Message]:
        self._advance(SfPhase.ABORTED)
        log.info("sensing task %s aborted: %s", self.stid, reason)
        return [
            Message(
                variant="ServiceAbort",
                sender=SF_NAME,
                receiver=SSC_NAME,
                step=step,
                stid=self.stid,
                payload=reason,
            )
        ]

    def _require_phase(self, *phases: SfPhase) -> None:
        if self.phase not in phases:
            raise ProtocolError(
                f"message not acceptable in phase {self.phase.value}; expected one of "
                f"{[p.value for p in phases]}"
            )

    def _advance(self, phase: SfPhase) -> None:
        # Phases only move forward in definition order; any phase may abort.
        order = list(SfPhase)
        if phase != SfPhase.ABORTED and order.index(phase) <= order.index(self.phase):
            raise ProtocolError(
                f"illegal phase transition {self.phase.value} -> {phase.value}"
            )
        self.phase = phase
        self.phase_history.append(phase)


# -- orchestration -----------------------------------------------------------


@dataclass(frozen=True)
class CallFlowRun:
    """Everything observable from one call-flow execution."""

    result: SensingResult | None
    abort_reason: str | None
    trace: tuple[TraceEvent, ...]
    phases: tuple[SfPhase, ...]
    stid: Stid | None


def run_call_flow(
    scenario: Scenario,
    request: ServiceRequest,
    rules: PolicyRules,
    store: SdsfStore,
    fc: FilterConfig,
    *,
    aging_policy: int = 100_000,
    realization: int = 0,
    archive_raw: bool = False,
) -> CallFlowRun:
    """Execute the 16-step procedure once against the given store.

    The epoch is the store clock at entry, so consecutive runs against the
    same store occupy consecutive time windows and later runs can find
    earlier runs' archives.
    """
    bus = MessageBus()
    world = SensingWorld(scenario, realization=realization)
    sf = SensingFunction(
        bus,
        world,
        fc,
        epoch=store.now,
        aging_policy=aging_policy,
        archive_raw=archive_raw,
    )
    consumer = ServiceConsumer(request)
    pcf = PolicyControl(rules)
    sdsf = SdsfFrontend(store)

    bus.register_actor(SF_NAME, sf.handle)
    bus.register_actor(SSC_NAME, consumer.handle)
    bus.register_actor(PCF_NAME, pcf.handle)
    bus.register_actor(SDSF_NAME, sdsf.handle)
    for se_id in scenario.se_ids:
        bus.register_actor(se_id, SensingEntity(se_id, world).handle)
        sf.register_se(se_id)

    bus.post(consumer.initial_message())
    try:
        bus.run()
    finally:
        bus.close()

    return CallFlowRun(
        result=consumer.result,
        abort_reason=consumer.abort_reason,
        trace=tuple(bus.trace),
        phases=tuple(sf.phase_history),
        stid=consumer.stid,
    )
