"""Survival curves, censoring-distribution estimation, and time-dependent
concordance with inverse-probability-of-censoring weights.

The survival curve uses the piecewise-constant form consistent with the
training loss: S(t) = exp(-(sum of fully elapsed bin hazards plus the
current bin's hazard scaled by its elapsed fraction)). The discrete product
recursion is also provided for cross-checking. Concordance follows the
weighted pairwise estimator: among pairs where the earlier record has the
event of interest within the horizon, count how often it also has the lower
predicted survival, weighting each pair by the inverse squared censoring
survival just before the earlier record's time.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels


class UndefinedMetricError(ValueError):
    """Raised when a metric has no comparable pairs to average over."""


def survival_from_hazards(hazards, grid, t):
    """S(t) under piecewise-constant hazards; beyond-grid times clamp."""
    hazards = np.asarray(hazards, dtype=np.float64)
    if np.any(hazards < 0):
        raise ValueError("hazards must be nonnegative")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr > grid.cuts[-1]):
        warnings.warn(
            f"query time beyond grid end {grid.cuts[-1]}; survival clamped", stacklevel=2
        )
    k0 = grid.interval_index(t_arr, clip=True)
    r = grid.interval_fraction(t_arr, clip=True)
    cum = np.concatenate([[0.0], np.cumsum(hazards)])
    chaz = cum[k0] + hazards[k0] * r
    # t = 0 accrues nothing: index 0 with fraction 0
    return np.exp(-chaz)


def survival_discrete_product(hazards, grid):
    """Discrete recursion S(tau_j) = (1 - h_j) S(tau_{j-1}), for cross-checks."""
    hazards = np.asarray(hazards, dtype=np.float64)
    return np.cumprod(1.0 - hazards)


@dataclass
class SurvivalCurve:
    """One record's survival values at the cut points, with the hazards that
    generated them so interior times interpolate consistently."""

    grid: object
    values: np.ndarray  # S at each cut point
    hazards: np.ndarray
    mode: str = "constant-hazard"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ValueError("survival values must lie in [0, 1]")
        if np.any(np.diff(self.values) > 1e-12):
            raise ValueError("survival values must be nonincreasing")

    @classmethod
    def from_hazards(cls, hazards, grid):
        values = survival_from_hazards(np.asarray(hazards), grid, grid.cuts)
        return cls(grid, values, np.asarray(hazards, dtype=np.float64))

    def at(self, t):
        """S(t); equals ``values`` at the cut points, 1 at time zero."""
        return survival_from_hazards(self.hazards, self.grid, t)


def survival_matrix(hazard_matrix, grid, times):
    """Curves for many records at once: (n, m) hazards -> (n, T) survival."""
    hazard_matrix = np.asarray(hazard_matrix, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    k0 = grid.interval_index(times, clip=True)
    r = grid.interval_fraction(times, clip=True)
    cum = np.concatenate([np.zeros((hazard_matrix.shape[0], 1)), np.cumsum(hazard_matrix, axis=1)], axis=1)
    chaz = cum[:, k0] + hazard_matrix[:, k0] * r[None, :]
    return np.exp(-chaz)


@dataclass
class CensoringEstimate:
    """Product-limit estimate of the censoring survival function."""

    times: np.ndarray  # sorted distinct censoring times
    values: np.ndarray  # G after each time

    def evaluate(self, t):
        """Right-continuous step value G(t)."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate([[1.0], self.values])
        return padded[idx]

    def evaluate_left(self, t):
        """Left limit G(t-): the value just before t."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.times, t, side="left")
        padded = np.concatenate([[1.0], self.values])
        return padded[idx]

    def to_dict(self):
        return {"times": self.times.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, payload):
        return cls(np.asarray(payload["times"]), np.asarray(payload["values"]))


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


def quantile_horizons(event_durations, quantiles):
    """Empirical quantiles of the uncensored duration distribution."""
    event_durations = np.asarray(event_durations, dtype=np.float64)
    if event_durations.size == 0:
        raise ValueError("no uncensored durations to take quantiles of")
    return np.quantile(event_durations, np.asarray(quantiles, dtype=np.float64))


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
