"""Detection-probability and false-alarm metrics.

Per-target detection probability is the fraction of steps, among those where
the target was inside the sensing area, in which it was detected.  The scalar
summary averages those fractions over targets that were observable at least
once; the false-alarm rate is total unmatched accepted detections divided by
total steps.  :func:`sensefuse.fusion.grid_metrics` computes both from
counts, as arrays.  Aggregation across Monte-Carlo realizations reports
means and sample (n-1) standard deviations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyRunError


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


def aggregate_values(pd_avg: Sequence[float], fa_avg: Sequence[float]) -> AggregateStats:
    """Mean and sample std of the realizations' values; zero std for one realization."""
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
