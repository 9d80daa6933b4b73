"""Detection-probability and false-alarm metrics.

Per-target detection probability is the fraction of steps, among those where
the target was inside the sensing area, in which it was detected.  The scalar
summary averages those fractions over the targets inside the area at least
once, the only ones :func:`sensefuse.fusion.detection_distances` keeps; the
false-alarm rate is total unmatched accepted detections divided by total
steps.  :func:`sensefuse.fusion.grid_arrays` computes both from counts, as
arrays, and :func:`sensefuse.harness.run_sweep` reduces those arrays over
many realizations to means and sample standard deviations.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricResult:
    """Finalized metrics for one realization.

    ``pd_per_target`` covers the targets inside the area at least once, and
    ``pd_avg`` is NaN when there is none.  ``excluded_targets`` is always
    ``()`` for results this build computes; the store's log format holds it.
    """

    pd_per_target: dict[int, float]
    pd_avg: float
    fa_avg: float
    excluded_targets: tuple[int, ...] = ()
