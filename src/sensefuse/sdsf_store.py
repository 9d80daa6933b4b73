"""Sensing data storage function (SDSF).

A stid/time/context-indexed store for sensing records with three duties:

* freshness-filtered retrieval, :meth:`SdsfStore.fetch`, the store's one
  read;
* availability: :func:`availability` reports whether the fetched records
  jointly cover a requested context (area, time window, target type), and
  names the missing portions when coverage is partial;
* an aging policy that expires records.

Time is the simulator's integer step clock; the store never consults wall
clock time.  Persistence is a single append-only JSON-lines log with a header
line, replayed into the in-memory index on load.  Each line is written with
its ``"\n"`` last, so a final line without one is torn by an interrupted
append: replay drops it with a warning, and the next append first cuts the
log back to its last complete line.  Any other line that cannot be replayed,
a line whose record id an earlier line already holds, and a torn header,
raise :class:`StoreCorruptError` naming the file and line.

Every line, the header included, is ``orjson.dumps`` of its JSON form with
sorted keys; a non-finite metric is written as ``null`` and read back as
NaN.  A record line holds each fact once: its id, stid, context (area, time
window, target type), payload, ``created_at`` and ``aging_policy``.  The
payload's ``"type"`` gives the record's kind.  :class:`SensingContext`
and :class:`SensingRecord` check their own fields, so window ends,
``created_at``, ``aging_policy`` and excluded targets are integers within
int64, which orjson writes and reads exactly.  A record orjson cannot encode
(a lone surrogate, an integer past 64 bits elsewhere) is rejected by
``store()`` before the log or the index changes.

A raw record's payload is the columns of :class:`DetectionColumns`:
``"se_ids"`` and ``"se_idx"`` are JSON lists, ``"xy"`` is one standard
base64 string (RFC 4648, padded) of the ``(D, 2)`` row-major little-endian
float64 bytes, and ``"clutter"`` is base64 of ``np.packbits(is_clutter)``,
most significant bit first with zero pad bits.  A build from before this
form fails on such a line with ``bad record: could not convert string to
float`` followed by the whole ``"xy"`` string.

Replay reads each line with orjson, and with stdlib ``json`` only for what
older logs hold and orjson rejects (see :func:`_decode_line`).  It builds
every record with the same constructors as ``store()``, so a replayed record
passes the same checks.  Within one replay, equal area rects and equal static
maps are shared.  Replay reads three raw forms into the same columns: a
payload with ``"items"`` holds one item per detection; otherwise a string
``"xy"`` is the form above, decoded strictly (base64 alphabet and padding,
zero leftover bits in a padded last group, so that each column has one
spelling, ``16 * D`` xy bytes, ``ceil(D / 8)`` clutter bytes, zero pad
bits), and a list ``"xy"`` holds ``[x, y]`` pairs beside a list of clutter
booleans.  Only the base64 form is written.  Lines of older logs also hold a ``"kind"``, which
must be the payload's, and ``"conditions"`` and ``"metadata"``, which replay
ignores.
"""
from __future__ import annotations

import base64
import json
import logging
import math
import os
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, TypeVar, Union

import numpy as np
import orjson

from .errors import StoreCorruptError
from .geometry import Rect, StaticMap, subtract_rects
from .measurement import DetectionColumns
from .metrics import MetricResult

log = logging.getLogger(__name__)

LOG_MAGIC = "sensefuse-sdsf-log"
LOG_FORMAT_VERSION = 1

TARGET_TYPES = ("pedestrian", "vehicle", "lorry", "cyclist", "motorcyclist", "unknown")

Payload = Union[StaticMap, DetectionColumns, MetricResult]
_PAYLOAD_KINDS = {StaticMap: "processed", MetricResult: "high-level", DetectionColumns: "raw"}
T = TypeVar("T")


@dataclass(frozen=True)
class SensingContext:
    """What a piece of sensing data is about: where, when, and of what."""

    area: Rect
    time_window: tuple[int, int]
    target_type: str = "unknown"

    def __post_init__(self) -> None:
        start, end = self.time_window
        # No generator: replay builds many contexts.
        if type(start) is not int or type(end) is not int:
            raise ValueError(f"time_window ends must be integers, got {self.time_window!r}")
        if start > end:
            raise ValueError(f"time_window start must be <= end, got {self.time_window}")
        if start < -(2**63) or end > 2**63 - 1:
            raise ValueError(f"time_window ends must be within int64, got {self.time_window}")
        if self.target_type not in TARGET_TYPES:
            raise ValueError(
                f"target_type must be one of {TARGET_TYPES}, got {self.target_type!r}"
            )


@dataclass(frozen=True)
class SensingRecord:
    """One stored unit of sensing data; its kind follows from its payload's type."""

    record_id: str
    stid: str
    context: SensingContext
    payload: Payload
    created_at: int
    aging_policy: int  # steps the record stays valid after creation

    def __post_init__(self) -> None:
        """The checks ``store()`` and replay share; ``store()`` adds only its clock.

        A metrics payload's numbers may be NaN: replay reads the ``null`` of a
        non-finite metric back as NaN.
        """
        stid, payload = self.stid, self.payload
        problems = []
        if type(stid) is not str or not stid:
            problems.append(f"stid: must be a non-empty string, got {stid!r}")
        for name, value in (("created_at", self.created_at), ("aging_policy", self.aging_policy)):
            if type(value) is not int or not 0 <= value <= 2**63 - 1:
                problems.append(f"{name}: must be an integer in [0, 2**63 - 1], got {value!r}")
        if type(payload) not in _PAYLOAD_KINDS:
            problems.append(f"payload: unsupported payload type {type(payload).__name__}")
        elif isinstance(payload, MetricResult):
            if not all(
                isinstance(v, float) or type(v) is int
                for v in (payload.pd_avg, payload.fa_avg, *payload.pd_per_target.values())
            ):
                problems.append("payload: metrics must be numbers or null")
            if not all(
                type(t) is int and -(2**63) <= t <= 2**63 - 1 for t in payload.excluded_targets
            ):
                problems.append(
                    "payload: excluded_targets must be integers within int64, "
                    f"got {payload.excluded_targets!r}"
                )
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def kind(self) -> str:
        """``raw``, ``processed`` or ``high-level``."""
        return _PAYLOAD_KINDS[type(self.payload)]

    def expired(self, now: int) -> bool:
        return now - self.created_at > self.aging_policy


@dataclass(frozen=True)
class Availability:
    """Coverage verdict for a request, as :func:`availability` computes it."""

    status: str  # exists | partial | missing
    missing_portions: tuple[SensingContext, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in ("exists", "partial", "missing"):
            raise ValueError(f"invalid availability status {self.status!r}")
        if self.status == "exists" and self.missing_portions:
            raise ValueError("status 'exists' cannot carry missing portions")


def _subtract_window(
    base: tuple[int, int], cuts: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Closed-interval subtraction on the integer step axis."""
    remaining = [base]
    for c0, c1 in sorted(cuts):
        nxt: list[tuple[int, int]] = []
        for r0, r1 in remaining:
            if c1 < r0 or c0 > r1:
                nxt.append((r0, r1))
                continue
            if r0 < c0:
                nxt.append((r0, c0 - 1))
            if c1 < r1:
                nxt.append((c1 + 1, r1))
        remaining = nxt
        if not remaining:
            break
    return remaining


def availability(ctx: SensingContext, records: list[SensingRecord]) -> Availability:
    """Coverage of ``ctx`` by the records ``fetch(ctx, ...)`` returned.

    Spatial and temporal coverage are computed separately and intersected:
    full availability requires both.  A record's area and window need no
    clipping to the request: each cut is intersected with pieces that
    already lie inside it.  Subtracting a cut a second time is a no-op, so
    only distinct cuts are subtracted, in order of first appearance.
    """
    if not records:
        return Availability(status="missing", missing_portions=(ctx,))
    areas = dict.fromkeys(r.context.area for r in records)
    windows = dict.fromkeys(r.context.time_window for r in records)
    uncovered_rects = subtract_rects(ctx.area, list(areas))
    uncovered_windows = _subtract_window(ctx.time_window, list(windows))
    if not uncovered_rects and not uncovered_windows:
        return Availability(status="exists")
    missing = [
        SensingContext(rect, ctx.time_window, ctx.target_type) for rect in uncovered_rects
    ] + [SensingContext(ctx.area, win, ctx.target_type) for win in uncovered_windows]
    return Availability(status="partial", missing_portions=tuple(missing))


class SdsfStore:
    """Append-log backed sensing data store.

    ``path=None`` keeps the store purely in memory; with a path, every stored
    record is appended to the log and the index is rebuilt from the log on
    construction.  The clock starts at the newest persisted created_at.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._records: dict[str, SensingRecord] = {}
        self._next_id = 1
        self._now = 0
        self._torn_at: int | None = None  # log offset of a torn final line
        if self._path is not None and self._path.exists():
            self._load()

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._now

    def __len__(self) -> int:
        """Number of indexed records, expired ones included until aged out."""
        return len(self._records)

    def set_now(self, now: int) -> None:
        """Advance the store clock; moving backwards is a protocol bug."""
        if now < self._now:
            raise ValueError(f"store clock cannot move backwards: {now} < {self._now}")
        self._now = now

    # -- write path ----------------------------------------------------------

    def store(
        self,
        stid: str,
        context: SensingContext,
        payload: Payload,
        created_at: int,
        aging_policy: int,
    ) -> str:
        """Persist one record and return its id.

        A record is indexed only once its log line is appended.
        """
        try:
            record = SensingRecord(
                f"rec-{self._next_id:06d}", stid, context, payload, created_at, aging_policy
            )
        except ValueError as exc:
            raise ValueError(f"record rejected: {exc}") from None
        if created_at > self._now:
            raise ValueError(
                f"record rejected: created_at: {created_at} is in the future (now={self._now})"
            )
        if self._path is not None:
            self._append_to_log(record)
        self._next_id += 1
        self._records[record.record_id] = record
        return record.record_id

    # -- read path -----------------------------------------------------------

    def fetch(self, ctx: SensingContext, max_age: float = math.inf) -> list[SensingRecord]:
        """Live records overlapping ``ctx`` whose age at the store clock is <= max_age.

        This is the store's one read; :func:`availability` turns its result
        into the coverage verdict.  Matching is purely by context, so one task
        can reuse data archived by another.  Stored "unknown" data is
        type-agnostic and satisfies any requested target type.  Windows
        overlap when they share a step; areas when they share positive area.
        The age bound is inclusive.  Self-expired records (those past their
        own aging policy) are never returned, so a later aging pass cannot
        remove anything fetch would still have served.  Results are ordered
        newest first, then by record id for stability.
        """
        now = self._now
        area, (t0, t1), wanted = ctx.area, ctx.time_window, ctx.target_type
        hits = [
            r
            for r in self._records.values()
            if not now - r.created_at > r.aging_policy
            and now - r.created_at <= max_age
            and ((c := r.context).target_type == wanted or c.target_type == "unknown")
            and max(c.time_window[0], t0) <= min(c.time_window[1], t1)
            and c.area.intersects(area)
        ]
        return sorted(hits, key=lambda r: (-r.created_at, r.record_id))

    # -- aging ---------------------------------------------------------------

    def apply_aging(self, now: int) -> int:
        """Advance the clock and drop expired records from the index.

        Returns the number of records removed.  Idempotent: a second pass at
        the same clock removes nothing.
        """
        self.set_now(now)
        expired = [rid for rid, r in self._records.items() if r.expired(now)]
        for rid in expired:
            del self._records[rid]
        if expired:
            log.info("aged out %d record(s) at step %d", len(expired), now)
        return len(expired)

    # -- persistence -----------------------------------------------------------

    def _append_to_log(self, record: SensingRecord) -> None:
        assert self._path is not None
        # Built before the log is touched, so a record orjson cannot encode
        # (a lone surrogate, an integer past 64 bits) leaves the log as it was.
        try:
            line = _log_line(_record_to_json(record))
        except orjson.JSONEncodeError as exc:
            raise ValueError(f"record rejected: {exc}") from None
        if self._torn_at is not None:
            os.truncate(self._path, self._torn_at)
            self._torn_at = None
        with self._path.open("ab") as fh:
            if not fh.tell():
                fh.write(_log_line({"magic": LOG_MAGIC, "version": LOG_FORMAT_VERSION}))
            fh.write(line)

    def _load(self) -> None:
        assert self._path is not None
        # Bytes, so that invalid UTF-8 surfaces as a bad line, not a read error.
        with self._path.open("rb") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                return  # empty file behaves like a fresh store
            if not header_line.endswith(b"\n"):
                raise StoreCorruptError(self._path, 1, "torn header")
            try:
                header = orjson.loads(header_line)
            except orjson.JSONDecodeError:
                header = None
            if not isinstance(header, dict) or header.get("magic") != LOG_MAGIC:
                raise StoreCorruptError(self._path, 1, "not a sensing store log (bad magic)")
            if header.get("version") != LOG_FORMAT_VERSION:
                raise StoreCorruptError(
                    self._path, 1, f"unsupported log version {header.get('version')!r}"
                )
            # Equal area rects and equal maps decoded in this replay share one object.
            rects: dict[bytes, Rect] = {}
            maps: dict[bytes, StaticMap] = {}
            entries = []
            first_line: dict[str, int] = {}  # record id -> the line it is on
            end = len(header_line)
            for lineno, line in enumerate(fh, start=2):
                if not line.endswith(b"\n"):
                    log.warning("%s:%d: dropped a torn final line", self._path, lineno)
                    self._torn_at = end
                    break
                end += len(line)
                if not line.strip():
                    continue
                try:
                    record = _record_from_json(_decode_line(line), rects, maps)
                    num = int(record.record_id.split("-")[-1])
                except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
                    raise StoreCorruptError(self._path, lineno, f"bad record: {exc}") from exc
                first = first_line.setdefault(record.record_id, lineno)
                if first != lineno:
                    raise StoreCorruptError(
                        self._path,
                        lineno,
                        f"duplicate record_id {record.record_id!r}, first on line {first}",
                    )
                entries.append((record, num))
        for record, num in entries:
            self._records[record.record_id] = record
            self._now = max(self._now, record.created_at)
            self._next_id = max(self._next_id, num + 1)
        # Records already past their policy relative to the recovered clock
        # stay out of the index, matching what apply_aging would have done.
        self.apply_aging(self._now)


# -- JSON codecs -------------------------------------------------------------


def _context_to_json(ctx: SensingContext) -> dict:
    return {
        "area": list(ctx.area.as_tuple()),
        "time_window": list(ctx.time_window),
        "target_type": ctx.target_type,
    }


def _context_from_json(d: dict, rects: dict | None = None) -> SensingContext:
    coords = d["area"]
    return SensingContext(
        area=_interned(rects, coords, lambda: Rect(*coords)),
        time_window=tuple(d["time_window"]),
        target_type=d["target_type"],
    )


def _finite_or_none(v: float) -> float | None:
    return v if math.isfinite(v) else None


def _nan_if_none(v: float | None) -> float:
    return math.nan if v is None else v


def _interned(cache: dict[bytes, T] | None, coords: object, build: Callable[[], T]) -> T:
    """``build()``, or the object that equal JSON ``coords`` built earlier into ``cache``.

    The key is the JSON text of ``coords``, so ``0`` and ``0.0``, or ``0.0``
    and ``-0.0``, stay apart.  Only immutable objects are cached.
    """
    if cache is None:
        return build()
    key = orjson.dumps(coords)
    obj = cache.get(key)
    if obj is None:
        obj = cache[key] = build()
    return obj


def _decode_line(line: bytes) -> Any:
    """One log line as ``json.loads`` decodes it, parsed by orjson where orjson can.

    orjson rejects what only older logs hold: the bare ``NaN``/``Infinity`` of
    logs written before metrics were stored as ``null``, and lone-surrogate
    escapes.  Those lines go to ``json.loads``.  Every integer ``store()``
    writes is within 64 bits, where the two decoders agree.
    """
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:
        return json.loads(line)


def _payload_to_json(payload: Payload) -> dict:
    if isinstance(payload, DetectionColumns):
        return {
            "type": "detections",
            "se_ids": payload.se_ids,
            "se_idx": payload.se_idx,
            "xy": _b64(payload.xy.astype("<f8", copy=False)),
            "clutter": _b64(np.packbits(payload.is_clutter)),
        }
    if isinstance(payload, StaticMap):
        return {
            "type": "static_map",
            "bounds": list(payload.bounds.as_tuple()),
            "rects": [list(r.as_tuple()) for r in payload.rects],
        }
    return {
        "type": "metrics",
        "pd_per_target": {str(k): _finite_or_none(v) for k, v in payload.pd_per_target.items()},
        "pd_avg": _finite_or_none(payload.pd_avg),
        "fa_avg": _finite_or_none(payload.fa_avg),
        "excluded_targets": list(payload.excluded_targets),
    }


def _b64(a: np.ndarray) -> str:
    return base64.b64encode(a.tobytes()).decode("ascii")


def _b64_column(text: str, name: str) -> bytes:
    """Strict base64: alphabet, padding, and zero leftover bits in the last group."""
    raw = base64.b64decode(text, validate=True)
    # 'AB==' and 'AA==' both decode to one zero byte; only the second is what
    # the writer emits, so the final group must re-encode to itself.
    if len(raw) % 3 and base64.b64encode(raw[-(len(raw) % 3) :]).decode() != text[-4:]:
        raise ValueError(f"{name} is not canonical base64 ({len(raw)} bytes)")
    return raw


def _compact_columns_from_json(d: dict) -> DetectionColumns:
    """The compact raw payload: base64 of the xy float64 bytes and of the packed clutter bits.

    Messages name sizes only, never the payload's text.
    """
    if type(d["clutter"]) is not str:
        raise ValueError("clutter must be a base64 string when xy is one")
    xy = _b64_column(d["xy"], "xy")
    clutter = _b64_column(d["clutter"], "clutter")
    n, rest = divmod(len(xy), 16)
    if rest:
        raise ValueError(f"xy holds {len(xy)} bytes, not a multiple of 16")
    if len(clutter) != (n + 7) // 8:
        raise ValueError(f"clutter holds {len(clutter)} bytes, not {(n + 7) // 8} for {n} rows")
    bits = np.unpackbits(np.frombuffer(clutter, dtype=np.uint8))
    if bits[n:].any():
        raise ValueError("clutter pad bits must be zero")
    return DetectionColumns(
        np.frombuffer(xy, dtype="<f8").reshape(n, 2), d["se_idx"], d["se_ids"], bits[:n] == 1
    )


_ITEM_FIELDS = itemgetter("x", "y", "source_se", "clutter")


def _columns_from_json(items: list[dict]) -> DetectionColumns:
    """The detections payload's items as columns, read in one pass over the items.

    Logs written while detections carried a covariance also hold a
    ``"cov"`` per item; it is not read.
    """
    n = len(items)
    xs, ys, sources, clutter = zip(*map(_ITEM_FIELDS, items)) if n else ((),) * 4
    se_ids = tuple(dict.fromkeys(sources))
    index = {se_id: i for i, se_id in enumerate(se_ids)}
    return DetectionColumns(
        xy=np.array((xs, ys), dtype=float).T.copy(),
        se_idx=np.fromiter(map(index.__getitem__, sources), dtype=np.intp, count=n),
        se_ids=se_ids,
        is_clutter=np.array(clutter),
    )


def _static_map_from_json(d: dict) -> StaticMap:
    bounds = Rect(*d["bounds"])
    return StaticMap(tuple(Rect(*r) for r in d["rects"]), bounds)


def _payload_from_json(d: dict, maps: dict | None = None) -> Payload:
    if d["type"] == "static_map":
        return _interned(maps, (d["bounds"], d["rects"]), lambda: _static_map_from_json(d))
    if d["type"] == "metrics":
        # Never shared: pd_per_target is a mutable dict.
        return MetricResult(
            pd_per_target={
                int(k): math.nan if v is None else v for k, v in d["pd_per_target"].items()
            },
            pd_avg=_nan_if_none(d["pd_avg"]),
            fa_avg=_nan_if_none(d["fa_avg"]),
            excluded_targets=tuple(d["excluded_targets"]),
        )
    if d["type"] == "detections":
        if "items" in d:
            return _columns_from_json(d["items"])
        if type(d["xy"]) is str:
            return _compact_columns_from_json(d)
        xy = np.array(d["xy"], dtype=float).reshape(len(d["xy"]), 2)
        return DetectionColumns(xy, d["se_idx"], d["se_ids"], d["clutter"])
    raise ValueError(f"unknown payload type {d.get('type')!r}")


def _record_to_json(record: SensingRecord) -> dict:
    return {
        "record_id": record.record_id,
        "stid": record.stid,
        "context": _context_to_json(record.context),
        "payload": _payload_to_json(record.payload),
        "created_at": record.created_at,
        "aging_policy": record.aging_policy,
    }


def _log_line(obj: dict) -> bytes:
    """``obj`` as one log line: its JSON with sorted keys, then ``"\\n"``."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY) + b"\n"


def _record_from_json(
    d: dict, rects: dict | None = None, maps: dict | None = None
) -> SensingRecord:
    """The record a decoded log line holds; ``rects`` and ``maps`` intern its area and map.

    An older line's ``"kind"`` must be its payload's; its ``"conditions"`` and
    ``"metadata"`` never took part in matching and are not read.
    """
    record = SensingRecord(
        record_id=d["record_id"],
        stid=d["stid"],
        context=_context_from_json(d["context"], rects),
        payload=_payload_from_json(d["payload"], maps),
        created_at=d["created_at"],
        aging_policy=d["aging_policy"],
    )
    if "kind" in d and d["kind"] != record.kind:
        raise ValueError(f"kind: {d['kind']!r} does not match payload kind {record.kind!r}")
    return record
