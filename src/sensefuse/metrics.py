"""Detection-probability and false-alarm metrics.

Per-target detection probability is the fraction of steps, among those where
the target was inside the sensing area, in which it was detected.  The scalar
summary averages those fractions over targets that were observable at least
once; the false-alarm rate is total unmatched accepted detections divided by
total steps.  Aggregation across Monte-Carlo realizations reports means and
sample (n-1) standard deviations.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyRunError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetricResult:
    """Finalized metrics for one realization.

    ``pd_per_target`` covers only targets observed in-area at least once;
    targets that never were are listed in ``excluded_targets`` and do not
    influence ``pd_avg``.  ``pd_avg`` is NaN when no target was observable.
    """

    pd_per_target: dict[int, float]
    pd_avg: float
    fa_avg: float
    excluded_targets: tuple[int, ...] = ()


@dataclass(frozen=True)
class AggregateStats:
    """Mean and sample standard deviation of pd_avg and fa_avg across realizations."""

    pd_mean: float
    pd_std: float
    fa_mean: float
    fa_std: float
    n: int


def result_from_counts(
    target_ids: Sequence[int],
    successes: Sequence[int],
    steps: Sequence[int],
    fa_total: int,
    t_total: int,
) -> MetricResult:
    """Build a :class:`MetricResult` from raw counters.

    Raises :class:`EmptyRunError` when no frame was counted.
    """
    if t_total <= 0:
        raise EmptyRunError(f"t_total must be >= 1, got {t_total}")
    pd_per_target: dict[int, float] = {}
    excluded: list[int] = []
    for tid, succ, n_steps in zip(target_ids, successes, steps):
        if n_steps > 0:
            pd_per_target[tid] = succ / n_steps
        else:
            excluded.append(tid)
    if excluded:
        log.warning(
            "targets %s were never inside the sensing area; excluded from pd_avg", excluded
        )
    if pd_per_target:
        pd_avg = float(np.mean([pd_per_target[tid] for tid in sorted(pd_per_target)]))
    else:
        pd_avg = math.nan
    return MetricResult(
        pd_per_target=pd_per_target,
        pd_avg=pd_avg,
        fa_avg=fa_total / t_total,
        excluded_targets=tuple(excluded),
    )


def aggregate(results: Iterable[MetricResult]) -> AggregateStats:
    """Mean and sample std of pd_avg and fa_avg over realizations.

    A single realization reports zero standard deviation.
    """
    results = list(results)
    return aggregate_values([r.pd_avg for r in results], [r.fa_avg for r in results])


def aggregate_values(pd_avg: Sequence[float], fa_avg: Sequence[float]) -> AggregateStats:
    """:func:`aggregate` of the realizations' ``pd_avg`` and ``fa_avg`` values."""
    if not pd_avg:
        raise EmptyRunError("cannot aggregate zero realizations")
    pd = np.array(pd_avg)
    fa = np.array(fa_avg)
    n = len(pd)
    return AggregateStats(
        pd_mean=float(pd.mean()),
        pd_std=float(pd.std(ddof=1)) if n > 1 else 0.0,
        fa_mean=float(fa.mean()),
        fa_std=float(fa.std(ddof=1)) if n > 1 else 0.0,
        n=n,
    )
