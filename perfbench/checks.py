"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the output is
correct.  The checks read only what a user of the program sees (the sweep CSV
text, the call-flow result, the reopened store) and assert properties that
hold for any correct implementation, not particular floats, so that changes
to frame generation, the fusion kernel or the store keep passing them.
"""
from __future__ import annotations

import csv
import io
import math
from typing import Any, Iterable

CSV_COLUMNS = ("g", "g_det", "pd_mean", "pd_std", "fa_mean", "fa_std", "n")
BASELINE_G = -1.0


def check_sweep_csv(
    text: str,
    g_values: Iterable[float],
    g_det_values: Iterable[float],
    n_realizations: int,
) -> list[str]:
    """Problems with one sweep CSV written with a baseline row per gate."""
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
        return [f"header {reader.fieldnames} != {list(CSV_COLUMNS)}"]
    problems: list[str] = []
    rows: dict[tuple[float, float], dict[str, float]] = {}
    for i, raw in enumerate(reader):
        try:
            row = {k: float(raw[k]) for k in CSV_COLUMNS}
        except (TypeError, ValueError):
            problems.append(f"row {i}: unparseable {raw}")
            continue
        key = (row["g"], row["g_det"])
        if key in rows:
            problems.append(f"row {i}: duplicate cell {key}")
        rows[key] = row
        if not all(math.isfinite(v) for v in row.values()):
            problems.append(f"row {i}: non-finite value {raw}")
        for col in ("pd_mean", "pd_std"):
            if not 0.0 <= row[col] <= 1.0:
                problems.append(f"row {i}: {col}={row[col]} outside [0, 1]")
        if row["n"] != n_realizations:
            problems.append(f"row {i}: n={raw['n']} != {n_realizations}")

    g_sorted = sorted(set(g_values))
    expected = {(g, gd) for gd in g_det_values for g in [BASELINE_G, *g_sorted]}
    if set(rows) != expected:
        missing = sorted(expected - set(rows))
        extra = sorted(set(rows) - expected)
        return problems + [f"cells differ from the grid: missing {missing}, extra {extra}"]

    for gd in sorted(set(g_det_values)):
        pd = [rows[(g, gd)]["pd_mean"] for g in g_sorted]
        for g_lo, g_hi, lo, hi in zip(g_sorted, g_sorted[1:], pd, pd[1:]):
            if hi > lo:
                problems.append(
                    f"g_det={gd}: pd_mean rises from {lo} at g={g_lo} to {hi} at g={g_hi}"
                )
        fa_wide = rows[(g_sorted[-1], gd)]["fa_mean"]
        fa_base = rows[(BASELINE_G, gd)]["fa_mean"]
        if not fa_wide < fa_base:
            problems.append(
                f"g_det={gd}: fa_mean {fa_wide} at g={g_sorted[-1]} is not below "
                f"the baseline {fa_base}"
            )
    return problems


def _finite_metrics(result: Any) -> list[str]:
    metrics = result.metrics
    bad = [
        f"{name}={getattr(metrics, name)}"
        for name in ("pd_avg", "fa_avg")
        if not math.isfinite(getattr(metrics, name))
    ]
    return [f"non-finite metrics: {', '.join(bad)}"] if bad else []


def check_warm_result(result: Any, primed_metrics: Any) -> list[str]:
    """A warm request is served from the archive with the primed metrics."""
    if result is None:
        return ["request produced no result"]
    problems = []
    if result.data_source != "historical-only":
        problems.append(f"data_source={result.data_source!r}, expected 'historical-only'")
    if result.metrics != primed_metrics:
        problems.append(f"metrics {result.metrics} differ from the primed {primed_metrics}")
    return problems


def check_raw_result(result: Any, raw_records: int) -> list[str]:
    """A live archive-raw request fuses live data and leaves one raw record."""
    if result is None:
        return ["request produced no result"]
    problems = _finite_metrics(result)
    if result.data_source != "live+historical":
        problems.append(f"data_source={result.data_source!r}, expected 'live+historical'")
    if raw_records != 1:
        problems.append(f"reopened store holds {raw_records} raw records, expected 1")
    return problems


def check_repeats(name: str, values: list[Any]) -> list[str]:
    """Outputs or counts of repeats of one seed must be identical."""
    if any(v != values[0] for v in values[1:]):
        shown = values if all(isinstance(v, (int, float)) for v in values) else "(differs)"
        return [f"{name} differs across repeats of one seed: {shown}"]
    return []
