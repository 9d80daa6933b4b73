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

:func:`run_call_flow` walks the steps in order as one procedure and records
each message as a trace event, so every run with the same inputs produces
the same trace byte for byte.  Steps 8, 9 and 14 are internal SF actions and
appear in the trace as self-addressed events.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .config import DemoSettings
from .fusion import realization_metrics
from .geometry import Rect, StaticMap
from .metrics import MetricResult
from .scenario import Scenario, generate_realization, realization_detections, realization_rng
from .scenario import generate_frames  # noqa: F401  re-export; perfbench's tests bind it here
from .sdsf_store import SdsfStore, SensingContext, SensingRecord, availability

log = logging.getLogger(__name__)

SF_NAME = "sf"
SSC_NAME = "ssc"
PCF_NAME = "pcf"
SDSF_NAME = "sdsf"


# -- message vocabulary ------------------------------------------------------


@dataclass(frozen=True)
class SensingResult:
    """Step-15 payload: fused metrics plus how they were obtained."""

    metrics: MetricResult
    kpi_satisfied: bool
    mask_enabled: bool
    data_source: str  # live-only | live+historical | historical-only


@dataclass(frozen=True)
class TraceEvent:
    step: int
    sender: str
    receiver: str
    variant: str
    stid: str | None

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


def write_trace(events: Sequence[TraceEvent], out: TextIO) -> None:
    """Write the trace to an open text file as line-delimited JSON."""
    for ev in events:
        out.write(ev.to_json() + "\n")


# -- KPI and history ---------------------------------------------------------


def kpi_verdict(metrics: MetricResult, demo: DemoSettings) -> bool:
    """True when the fused metrics meet the requested targets (NaN never does)."""
    return (
        not math.isnan(metrics.pd_avg)
        and metrics.pd_avg >= demo.pd_min
        and metrics.fa_avg <= demo.fa_max
    )


def _metrics_preview(records: list[SensingRecord]) -> MetricResult | None:
    for record in records:
        if isinstance(record.payload, MetricResult):
            return record.payload
    return None


def _historical_mask(records: list[SensingRecord], bounds: Rect) -> StaticMap:
    # Archived maps may cover another area; keep the rects that reach these bounds.
    rects: list[Rect] = []
    for record in records:
        if isinstance(record.payload, StaticMap):
            rects.extend(r for r in record.payload.rects if r.intersects(bounds))
    return StaticMap(tuple(dict.fromkeys(rects)), bounds)


# -- the procedure -----------------------------------------------------------


@dataclass(frozen=True)
class CallFlowRun:
    """Everything observable from one call-flow execution."""

    result: SensingResult | None
    abort_reason: str | None
    trace: tuple[TraceEvent, ...]
    stid: str | None


def run_call_flow(
    scenario: Scenario, demo: DemoSettings, store: SdsfStore, *, realization: int = 0
) -> CallFlowRun:
    """Execute the 16-step procedure once against the given store.

    The consumer asks for the whole scenario area, with the KPI targets,
    consent, filter and archive settings of ``demo``.  The epoch is the
    store clock at entry, so consecutive runs against the same store occupy
    consecutive time windows and later runs can find earlier runs' archives.
    """
    trace: list[TraceEvent] = []

    def send(step: int, sender: str, receiver: str, variant: str, stid: str | None) -> None:
        trace.append(TraceEvent(step, sender, receiver, variant, stid))

    epoch = store.now
    for se_id in scenario.se_ids:
        send(1, se_id, SF_NAME, "SeRegistration", None)
    send(2, SSC_NAME, SF_NAME, "ServiceRequest", None)
    # Admission against the KPI is an optimistic stub: feasibility is only
    # judged once data exists, and the final verdict travels with the result.
    stid = f"stid-{epoch:06d}-01"
    send(3, SF_NAME, SSC_NAME, "ServiceAck", stid)

    send(4, SF_NAME, PCF_NAME, "PolicyRequest", stid)
    # The PCF denies a request over any prohibited zone; the first one met is named.
    zone = next((z for z in demo.prohibited_areas if scenario.bounds.intersects(z)), None)
    send(5, PCF_NAME, SF_NAME, "PolicyDecision", stid)
    if zone is not None:
        reason = f"policy denied: requested area intersects prohibited zone {zone.as_tuple()}"
        log.info("sensing task %s aborted: %s", stid, reason)
        send(5, SF_NAME, SSC_NAME, "ServiceAbort", stid)
        return CallFlowRun(result=None, abort_reason=reason, trace=tuple(trace), stid=stid)

    # Steps 6-8. Without consent the store's read side is never touched. One
    # fetch answers step 7, verdict and metrics preview alike, and steps 12-13.
    task_ctx = SensingContext(
        area=scenario.bounds,
        time_window=(epoch, epoch + scenario.t_steps),
        target_type=demo.target_type,
    )
    plan, records, preview = "live-only", [], None
    if demo.historical_consent:
        send(6, SF_NAME, SDSF_NAME, "AvailabilityQuery", stid)
        records = store.fetch(task_ctx, demo.max_age)
        status = availability(task_ctx, records).status
        preview = _metrics_preview(records)
        send(7, SDSF_NAME, SF_NAME, "AvailabilityResponse", stid)
        if status == "exists" and preview is not None and kpi_verdict(preview, demo):
            # Complete coverage whose archived quality already meets the KPI:
            # history alone suffices, skip steps 9-11.
            plan = "historical-only"
        elif status != "missing":
            plan = "live+historical"
    send(8, SF_NAME, SF_NAME, "DataPlanDecision", stid)

    rz = None
    if plan != "historical-only":
        send(9, SF_NAME, SF_NAME, "TaskGroupCreated", stid)
        for se_id in scenario.se_ids:
            send(10, SF_NAME, se_id, "SensingDataRequest", stid)
        # Each SE reports its own detections of one shared realization.
        rz = generate_realization(scenario, realization_rng(scenario.seed, realization))
        for se_id in scenario.se_ids:
            send(11, se_id, SF_NAME, "SensingDataReport", stid)
    if plan != "live-only":
        send(12, SF_NAME, SDSF_NAME, "HistoricalDataRequest", stid)
        send(13, SDSF_NAME, SF_NAME, "HistoricalDataResponse", stid)

    # Step 14. A live run masks only with the historical map; when no fetched
    # rect reaches the bounds the map is empty, and the run fuses as the
    # live-only baseline. A KPI miss never blocks the result.
    if rz is None:
        assert preview is not None
        metrics, mask_enabled = preview, False
    else:
        mask_map = _historical_mask(records, scenario.bounds)
        metrics = realization_metrics(scenario, rz, mask_map, demo.mask_margin_g, demo.gate_g_det)
        mask_enabled = not mask_map.empty
    result = SensingResult(metrics, kpi_verdict(metrics, demo), mask_enabled, plan)
    send(14, SF_NAME, SF_NAME, "FusionCompleted", stid)
    send(15, SF_NAME, SSC_NAME, "SensingResult", stid)
    if not demo.historical_consent:
        # Without consent nothing is archived: the store and its clock stay as they were.
        return CallFlowRun(result=result, abort_reason=None, trace=tuple(trace), stid=stid)

    # Step 16: archive the refreshed static map and the fused metrics; with
    # ``archive_raw``, a live run also archives its detections pooled frame
    # by frame, then SE by SE.
    send(16, SF_NAME, SDSF_NAME, "StorageUpdate", stid)
    end = epoch + scenario.t_steps
    window = (end, end + demo.aging_policy)
    map_ctx = SensingContext(area=scenario.bounds, time_window=window, target_type="unknown")
    metrics_ctx = SensingContext(
        area=scenario.bounds, time_window=window, target_type=demo.target_type
    )
    items = [(map_ctx, scenario.static_map), (metrics_ctx, result.metrics)]
    if demo.archive_raw and rz is not None:
        pooled = np.lexsort((rz.se_idx, rz.frame_of))
        items.append((metrics_ctx, realization_detections(scenario, rz, pooled)))
    store.set_now(end)
    for context, payload in items:
        store.store(stid, context, payload, end, demo.aging_policy)
    return CallFlowRun(result=result, abort_reason=None, trace=tuple(trace), stid=stid)
