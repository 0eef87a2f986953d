"""Training objectives: piecewise-constant-hazard likelihood terms, the
inverse-propensity-weighted competing-events loss, auxiliary task losses,
and the annealed total.

Two parallel forms exist for the survival terms: plain array functions used
for evaluation and analysis (built on ``kernels.pch_terms``), and tape
builders used in training so gradients flow back through the hazard heads.
The indicator-weighted losses implement the printed estimators exactly; the
censored cause-specific contributions that every record owes to the heads of
unobserved events are added separately by ``competing_survival_loss``.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels


@dataclass
class LossBreakdown:
    """The gamma-weighted total and its parts for one batch or epoch."""

    total: float
    survival: float
    mp: float
    ls: float
    gamma1: float
    gamma2: float


@dataclass
class AnnealSchedule:
    """Auxiliary-task weights: start at the initial values, decay to zero.

    ``linear`` ramps both weights down over ``horizon`` epochs; ``constant``
    keeps them fixed (horizon ignored).
    """

    initial: tuple = (1.0, 1.0)
    mode: str = "linear"
    horizon: int = 1

    def __post_init__(self):
        if self.mode not in ("linear", "constant"):
            raise ValueError(f"unknown anneal mode {self.mode!r}")
        if self.horizon < 1:
            raise ValueError("anneal horizon must be at least 1")

    def gammas(self, epoch):
        if self.mode == "constant":
            return self.initial
        frac = max(0.0, 1.0 - epoch / self.horizon)
        return (self.initial[0] * frac, self.initial[1] * frac)


# --- single-record / array-level losses ------------------------------------


def pch_loss(hazards, t, e, grid):
    """Piecewise-constant-hazard negative log likelihood for one record.

    -e*log(hated bin) + hazard*fraction elapsed + sum of fully elapsed bins.
    """
    hazards = np.asarray(hazards, dtype=np.float64)
    if hazards.ndim != 1 or hazards.size != grid.m:
        raise ValueError(f"expected {grid.m} hazards, got shape {hazards.shape}")
    if np.any(hazards <= 0):
        raise ValueError("hazards must be strictly positive")
    if e not in (0, 1):
        raise ValueError("event indicator must be 0 or 1")
    k0 = int(grid.interval_index(t, clip=True))
    r = float(grid.interval_fraction(t, clip=True))
    return float(
        kernels.pch_terms(hazards[None, :], np.array([k0]), np.array([r]), np.array([float(e)]))[0]
    )


def event_loss_matrix(hazards, durations, grid):
    """Counterfactual per-(record, event) losses: event k observed at t_i.

    ``hazards`` is (n, K, m); the result is (n, K). These are the terms the
    indicator-weighted estimators select among, and the ones averaged by the
    oracle risk that ignores which event actually occurred.
    """
    hazards = np.asarray(hazards, dtype=np.float64)
    n, K, m = hazards.shape
    k0 = grid.interval_index(durations, clip=True)
    r = grid.interval_fraction(durations, clip=True)
    out = np.empty((n, K))
    for k in range(K):
        out[:, k] = kernels.pch_terms(hazards[:, k, :], k0, r, np.ones(n))
    return out


def censored_loss_matrix(hazards, durations, grid):
    """Cumulative-hazard contribution of surviving event k to time t_i."""
    hazards = np.asarray(hazards, dtype=np.float64)
    n, K, m = hazards.shape
    k0 = grid.interval_index(durations, clip=True)
    r = grid.interval_fraction(durations, clip=True)
    out = np.empty((n, K))
    for k in range(K):
        out[:, k] = kernels.pch_terms(hazards[:, k, :], k0, r, np.zeros(n))
    return out


def naive_competing_loss(hazards, durations, events, grid):
    """Observed-event average: sum of selected losses over the event count."""
    losses = event_loss_matrix(hazards, durations, grid)
    events = np.asarray(events)
    n, K = losses.shape
    mask = events[:, None] == np.arange(1, K + 1)[None, :]
    n_events = int(mask.sum())
    if n_events == 0:
        raise ValueError("no observed events in batch; the naive loss is undefined")
    return float(losses[mask].sum() / n_events)


def ips_loss(hazards, durations, events, propensities, grid, floor=0.05):
    """Inverse-propensity-weighted loss, normalized by records times events.

    Censored records contribute no indicator term. Propensities at or below
    zero are rejected; values below the clipping floor are clipped before
    inversion to bound the weight variance.
    """
    losses = event_loss_matrix(hazards, durations, grid)
    events = np.asarray(events)
    pi = np.asarray(propensities, dtype=np.float64)
    if pi.shape != losses.shape:
        raise ValueError(f"propensities shape {pi.shape} does not match (n, K)={losses.shape}")
    if np.any(pi <= 0):
        raise ValueError("propensities must be strictly positive")
    pi = np.maximum(pi, floor)
    n, K = losses.shape
    mask = events[:, None] == np.arange(1, K + 1)[None, :]
    return float((losses[mask] / pi[mask]).sum() / (n * K))


def mp_loss(predictions, labels):
    """Mean binary cross-entropy of the any-event head."""
    y = np.asarray(predictions, dtype=np.float64)
    d = np.asarray(labels, dtype=np.float64)
    if np.any((y <= 0) | (y >= 1)):
        raise ValueError("predicted probabilities must lie strictly in (0, 1)")
    return float(np.mean(-d * np.log(y) - (1.0 - d) * np.log(1.0 - y)))


def ls_loss(predicted_times, observed_times):
    """Mean squared error of the follow-up-time head over all records."""
    diff = np.asarray(predicted_times, dtype=np.float64) - np.asarray(observed_times, dtype=np.float64)
    if diff.size == 0:
        raise ValueError("empty batch")
    return float(np.mean(diff * diff))


def total_loss(survival, mp, ls, schedule, epoch):
    g1, g2 = schedule.gammas(epoch)
    return LossBreakdown(
        total=survival + g1 * mp + g2 * ls,
        survival=survival,
        mp=mp,
        ls=ls,
        gamma1=g1,
        gamma2=g2,
    )


# --- tape builders (training path) -----------------------------------------


def _bin_masks(grid, durations, m):
    k0 = grid.interval_index(durations, clip=True)
    r = grid.interval_fraction(durations, clip=True)
    n = durations.shape[0]
    sel = np.zeros((n, m))
    sel[np.arange(n), k0] = 1.0
    prior = (np.arange(m)[None, :] < k0[:, None]).astype(np.float64)
    return sel, prior, r


def pch_terms_tensor(hazards, grid, durations, event_mask):
    """Per-record loss terms on the tape; ``event_mask`` switches the log term.

    hazards: Tensor (B, m). Returns a (B,) tensor of
    -mask*log(h[kappa]) + h[kappa]*rho + prior-bin sum.
    """
    B, m = hazards.data.shape
    sel, prior, r = _bin_masks(grid, np.asarray(durations, dtype=np.float64), m)
    h_at = ad.tsum(ad.mul(hazards, ad.Tensor(sel)), axis=1)
    log_term = ad.mul(ad.Tensor(-np.asarray(event_mask, dtype=np.float64)), ad.log(h_at))
    lin_term = ad.mul(ad.Tensor(r), h_at)
    prior_term = ad.tsum(ad.mul(hazards, ad.Tensor(prior)), axis=1)
    return ad.add(ad.add(log_term, lin_term), prior_term)


def competing_survival_loss(hazard_tensors, grid, durations, events, propensities=None, floor=0.05):
    """Tape survival objective: IPS-weighted event terms plus the censored
    cumulative-hazard terms every record owes to its unobserved heads,
    normalized together by records times events.

    With one event type and unit propensities this is exactly the batch mean
    of the single-event loss. ``propensities`` is (n, K) or None for unit
    weights.
    """
    K = len(hazard_tensors)
    events = np.asarray(events)
    n = events.shape[0]
    if propensities is None:
        pi = np.ones((n, K))
    else:
        pi = np.asarray(propensities, dtype=np.float64)
        if np.any(pi <= 0):
            raise ValueError("propensities must be strictly positive")
        pi = np.maximum(pi, floor)
    total = None
    for k in range(K):
        ind = (events == k + 1).astype(np.float64)
        weights = ind / pi[:, k]
        terms_event = pch_terms_tensor(hazard_tensors[k], grid, durations, np.ones(n))
        terms_cens = pch_terms_tensor(hazard_tensors[k], grid, durations, np.zeros(n))
        part = ad.add(
            ad.tsum(ad.mul(ad.Tensor(weights), terms_event)),
            ad.tsum(ad.mul(ad.Tensor(1.0 - ind), terms_cens)),
        )
        total = part if total is None else ad.add(total, part)
    return ad.mul(total, ad.Tensor(1.0 / (n * K)))


def mp_loss_tensor(prob, labels):
    d = np.asarray(labels, dtype=np.float64)
    pos = ad.mul(ad.Tensor(-d), ad.log(prob))
    neg = ad.mul(ad.Tensor(-(1.0 - d)), ad.log(ad.add(ad.Tensor(np.ones_like(d)), ad.neg(prob))))
    return ad.tmean(ad.add(pos, neg))


def ls_loss_tensor(pred, observed):
    diff = ad.add(pred, ad.Tensor(-np.asarray(observed, dtype=np.float64)))
    return ad.tmean(ad.mul(diff, diff))


def total_loss_tensor(survival, mp, ls, schedule, epoch):
    """Scalar tape total and the matching numeric breakdown."""
    g1, g2 = schedule.gammas(epoch)
    total = ad.add(survival, ad.add(ad.mul(mp, ad.Tensor(g1)), ad.mul(ls, ad.Tensor(g2))))
    breakdown = LossBreakdown(
        total=float(total.data),
        survival=float(survival.data),
        mp=float(mp.data),
        ls=float(ls.data),
        gamma1=g1,
        gamma2=g2,
    )
    return total, breakdown
