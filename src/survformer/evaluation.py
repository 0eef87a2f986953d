"""Survival curves, censoring-distribution estimation, and time-dependent
concordance with inverse-probability-of-censoring weights.

The survival curve uses the piecewise-constant form consistent with the
training loss: S(t) = exp(-(sum of fully elapsed bin hazards plus the
current bin's hazard scaled by its elapsed fraction)). Concordance follows the
weighted pairwise estimator: among pairs where the earlier record has the
event of interest within the horizon, count how often it also has the lower
predicted survival, weighting each pair by the inverse squared censoring
survival just before the earlier record's time.

The functions take and return arrays; a checkpoint's censoring record is
written and judged by the command-line front end.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels


class UndefinedMetricError(ValueError):
    """Raised when a metric has no comparable pairs to average over."""


def survival_matrix(hazard_matrix, grid, times):
    """Survival curves: (..., m) hazards -> (..., T) survival at ``times``.

    A time past the last cut holds the survival at the grid end.
    """
    hazard_matrix = np.asarray(hazard_matrix, dtype=np.float64)
    k0, r = grid.locate(times)
    cum = np.concatenate([np.zeros((*hazard_matrix.shape[:-1], 1)), np.cumsum(hazard_matrix, axis=-1)], axis=-1)
    return np.exp(-(cum[..., k0] + hazard_matrix[..., k0] * r))


@dataclass
class CensoringEstimate:
    """Product-limit estimate of the censoring survival function."""

    times: np.ndarray  # sorted distinct censoring times
    values: np.ndarray  # G after each time

    def __post_init__(self):
        self._steps = np.concatenate([[1.0], self.values])  # G before the first time, then after each

    def evaluate(self, t):
        """Right-continuous step value G(t)."""
        return self._step(t, "right")

    def evaluate_left(self, t):
        """Left limit G(t-): the value just before t."""
        return self._step(t, "left")

    def _step(self, t, side):
        return self._steps[np.searchsorted(self.times, np.asarray(t, dtype=np.float64), side=side)]


def km_censoring(durations, events):
    """Kaplan-Meier over censoring: records with event 0 are the 'events'."""
    durations = np.asarray(durations, dtype=np.float64)
    events = np.asarray(events)
    if durations.size == 0:
        raise ValueError("empty training set")
    distinct, d = np.unique(durations[events == 0], return_counts=True)
    if distinct.size == 0:
        return CensoringEstimate(np.empty(0), np.empty(0))
    # records still under observation at u: durations >= u
    at_risk = durations.size - np.searchsorted(np.sort(durations), distinct, side="left")
    return CensoringEstimate(distinct, np.cumprod(1.0 - d / at_risk))


def ctd(surv_at_tau, durations, events, tau, event_k, censoring):
    """Time-dependent concordance for event ``event_k`` at horizon ``tau``.

    ``surv_at_tau`` holds each record's predicted survival for the event at
    the horizon. Pairs (i, j) are comparable when record i has the event,
    fails no later than the horizon, and strictly earlier than record j's
    time; ties in predicted survival count one half. Each pair is weighted
    by 1/G(t_i-)^2 with G the censoring survival from the training fold.
    """
    scores = np.asarray(surv_at_tau, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    events = np.asarray(events)
    eligible = (events == event_k) & (durations <= tau)
    g_left = censoring.evaluate_left(durations)
    if np.any(eligible & (g_left <= 0)):
        raise ValueError("censoring survival vanished before an event time; weights undefined")
    weights = np.zeros_like(g_left)
    weights[eligible] = 1.0 / g_left[eligible] ** 2
    num, den, pairs = kernels.ctd_pair_stats(durations, eligible, scores, weights)
    if pairs == 0:
        raise UndefinedMetricError(
            f"no comparable pairs for event {event_k} at horizon {tau}"
        )
    return float(num / den), pairs
