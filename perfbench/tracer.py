"""Span tracer that wraps sensefuse's public functions and methods from outside.

The tracer never edits the program.  It replaces a target in every
``sensefuse`` module namespace that binds it (``harness`` and ``callflow``
import ``generate_frames`` by name, for example) and restores the originals
on :meth:`Tracer.uninstall`.  A target that no longer exists is recorded in
``Tracer.absent`` and the run goes on without it.

Every wrapped call records a span ``(op_id, name, start, end, parent)`` while
the tracer is active.  Spans are kept in memory up to ``span_limit`` and
written out at the end; past the limit only the per-name aggregates (calls,
total time, self time) and counts keep growing, so a long run stays small.
Self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

PACKAGE = "sensefuse"


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _store_path(store: Any) -> Any:
    return getattr(store, "_path", None)


# -- per-target counters --------------------------------------------------------
#
# A counter sees the call's arguments, its result and whatever its ``pre``
# hook measured before the call, and returns extra counts.  Both run outside
# the timed span.


def _count_frames(args: tuple, kwargs: dict, result: Any, pre: Any) -> dict[str, int]:
    frames = list(result)
    out = {"scenario.frames": len(frames)}
    if all(hasattr(f, "detections") for f in frames):
        out["scenario.detections"] = sum(len(f.detections) for f in frames)
    return out


def _count_messages(args: tuple, kwargs: dict, result: Any, pre: Any) -> dict[str, int]:
    trace = getattr(result, "trace", None)
    return {} if trace is None else {"callflow.messages": len(trace)}


def _pre_open(args: tuple, kwargs: dict) -> int:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return _file_size(path) if path is not None else 0


def _count_open(args: tuple, kwargs: dict, result: Any, pre: int) -> dict[str, int]:
    return {"sdsf_store.records_loaded": len(args[0]), "sdsf_store.log_bytes_read": pre}


def _count_fetch(args: tuple, kwargs: dict, result: Any, pre: Any) -> dict[str, int]:
    return {"sdsf_store.fetch.records_returned": len(result)}


def _pre_store(args: tuple, kwargs: dict) -> tuple[int, int]:
    store = args[0]
    return len(store), _file_size(_store_path(store))


def _count_store(args: tuple, kwargs: dict, result: Any, pre: tuple[int, int]) -> dict[str, int]:
    store = args[0]
    n_before, size_before = pre
    return {
        "sdsf_store.bytes_appended": _file_size(_store_path(store)) - size_before,
        "sdsf_store.dedup_hits": int(len(store) == n_before),
    }


@dataclass(frozen=True)
class Target:
    """One wrapped callable: span name, defining module, and attribute path.

    A target with ``timed=False`` has its calls counted but records no span:
    it runs once per detection, where a span would cost more than the call.
    """

    name: str
    module: str
    qualname: str
    pre: Callable[[tuple, dict], Any] | None = None
    count: Callable[[tuple, dict, Any, Any], dict[str, int]] | None = None
    timed: bool = True


TARGETS = (
    Target("scenario.generate_frames", "scenario", "generate_frames", count=_count_frames),
    Target("measurement.world_covariance", "measurement", "world_covariance"),
    Target("measurement.build_detection", "measurement", "build_detection"),
    Target("fusion.precompute_distances", "fusion", "precompute_distances"),
    Target("fusion.evaluate_distances", "fusion", "evaluate_distances"),
    Target("fusion.process_frame", "fusion", "process_frame"),
    Target("fusion.gate_detections", "fusion", "gate_detections", timed=False),
    Target("callflow.run_sensing_task", "callflow", "run_sensing_task"),
    Target("metrics.result_from_counts", "metrics", "result_from_counts"),
    Target("metrics.aggregate", "metrics", "aggregate"),
    Target("harness.write_csv", "harness", "write_csv"),
    Target("sdsf_store.open", "sdsf_store", "SdsfStore.__init__", _pre_open, _count_open),
    Target("sdsf_store.query_availability", "sdsf_store", "SdsfStore.query_availability"),
    Target("sdsf_store.fetch", "sdsf_store", "SdsfStore.fetch", count=_count_fetch),
    Target("sdsf_store.store", "sdsf_store", "SdsfStore.store", _pre_store, _count_store),
    Target("callflow.run_call_flow", "callflow", "run_call_flow", count=_count_messages),
    Target("callflow.write_trace", "callflow", "write_trace"),
    Target("callflow.SensingEntity.handle", "callflow", "SensingEntity.handle"),
    Target("callflow.SdsfFrontend.handle", "callflow", "SdsfFrontend.handle"),
    Target("callflow.SensingFunction.handle", "callflow", "SensingFunction.handle"),
    Target("callflow.PolicyControl.handle", "callflow", "PolicyControl.handle"),
    Target(
        "geometry.min_distance_sq_many", "geometry", "StaticMap.min_distance_sq_many", timed=False
    ),
    Target("geometry.in_dilated_map", "geometry", "in_dilated_map", timed=False),
)


class Patches:
    """Replacements of sensefuse attributes, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, qualname: str, make: Callable[[Any], Any]) -> bool:
        """Swap ``module.qualname`` for ``make(original)`` wherever it is bound.

        A module-level function is replaced in every loaded sensefuse module
        that binds the same object; a method is replaced on its class.
        Returns False, changing nothing, when the target does not exist.
        """
        try:
            owner: Any = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return False
        *path, attr = qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
        except (AttributeError, KeyError):
            return False
        wrapper = make(original)
        if path:
            bindings = [owner]
        else:
            bindings = [
                mod
                for name, mod in sorted(sys.modules.items())
                if (name == PACKAGE or name.startswith(PACKAGE + "."))
                and getattr(mod, attr, None) is original
            ]
        for holder in bindings:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)
        return True

    def undo(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


class Tracer:
    """Collects spans and counts from wrapped sensefuse calls."""

    def __init__(self, span_limit: int = 50_000):
        self.active = False
        self.op_id = 0
        self.span_limit = span_limit
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.spans_dropped = 0
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [child_time, span_index]
        self._patches = Patches()

    # -- installation ----------------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            found = self._patches.replace(
                target.module,
                target.qualname,
                lambda fn, t=target: self._wrap(t, fn),
            )
            if not found:
                self.absent.append(target.name)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, pre_hook, count_hook = target.name, target.pre, target.count

        if not target.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pre = None
            if pre_hook is not None:
                try:
                    pre = pre_hook(args, kwargs)
                except (AttributeError, TypeError):
                    pass  # the count after the call is skipped as well
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            entry = [0.0, -1]
            if len(tracer.spans) < tracer.span_limit:
                entry[1] = len(tracer.spans)
                tracer.spans.append((tracer.op_id, name, 0.0, 0.0, parent))
            else:
                tracer.spans_dropped += 1
            stack.append(entry)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - entry[0]
                if entry[1] >= 0:
                    tracer.spans[entry[1]] = (tracer.op_id, name, start, end, parent)
            if count_hook is not None:
                try:
                    tracer.counts.update(count_hook(args, kwargs, result, pre))
                except (AttributeError, TypeError):
                    pass  # the result no longer has the shape this count reads
            return result

        return traced

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Current totals, keyed ``<name>.calls``, ``<name>.s``, ``<name>.self_s``
        and by count name."""
        out: dict[str, float] = dict(self.counts)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; ``parent`` is the parent's line index or -1."""
        with path.open("w", encoding="utf-8") as fh:
            for op_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op_id, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
