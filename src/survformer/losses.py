"""Training objectives: piecewise-constant-hazard likelihood terms, the
inverse-propensity-weighted competing-events loss, auxiliary task losses,
and the annealed total.

``pch_terms`` is the one implementation of the hazard likelihood term: a tape
op with a closed-form gradient. Training builds ``competing_survival_loss``
on it; the array estimators (``pch_loss``, ``event_loss_matrix``,
``ips_loss``, ``naive_competing_loss``) read its values. The
indicator-weighted estimators implement the printed formulas exactly; the
censored cause-specific contributions that every record owes to the heads of
unobserved events are added only by ``competing_survival_loss``.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


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


# --- the piecewise-constant-hazard term -------------------------------------


def pch_terms(hazards, grid, durations, events):
    """Per-record piecewise-constant-hazard loss terms, as one tape op.

    ``hazards`` is a (B, m) Tensor of positive per-bin hazards; ``events`` is
    (B,), 1.0 where the record's event is observed for this head and 0.0 for
    a censored contribution. Returns a (B,) Tensor of
    -e*log(h[kappa]) + h[kappa]*rho + sum of the bins before kappa, with kappa
    the bin holding the duration and rho its elapsed fraction (durations past
    the last cut fall in the last bin). The gradient is g on every earlier bin
    and g*rho - e*g/h[kappa] on bin kappa.
    """
    h = hazards.data
    kappa = grid.interval_index(durations, clip=True)
    rho = grid.interval_fraction(durations, clip=True)
    events = np.asarray(events, dtype=np.float64)
    rows = np.arange(h.shape[0])
    h_at = h[rows, kappa]
    if np.any(h_at <= 0):
        raise ValueError("log requires strictly positive input")
    cum = np.cumsum(h, axis=1)
    prior = np.where(kappa > 0, cum[rows, np.maximum(kappa - 1, 0)], 0.0)

    def back(g, hazards=hazards):
        if hazards.requires_grad:
            grad = (np.arange(h.shape[1])[None, :] < kappa[:, None]) * g[:, None]
            grad[rows, kappa] = g * rho - events * g / h_at
            hazards._accumulate(grad)

    return ad.node(-events * np.log(h_at) + h_at * rho + prior, (hazards,), back)


# --- array-level estimators -------------------------------------------------


def pch_loss(hazards, t, e, grid):
    """Piecewise-constant-hazard negative log likelihood for one record.

    -e*log(hazard of t's bin) + that hazard*fraction elapsed + sum of fully
    elapsed bins.
    """
    hazards = np.asarray(hazards, dtype=np.float64)
    if hazards.ndim != 1 or hazards.size != grid.m:
        raise ValueError(f"expected {grid.m} hazards, got shape {hazards.shape}")
    if np.any(hazards <= 0):
        raise ValueError("hazards must be strictly positive")
    if e not in (0, 1):
        raise ValueError("event indicator must be 0 or 1")
    terms = pch_terms(ad.Tensor(hazards[None, :]), grid, np.array([t]), np.array([e]))
    return float(terms.data[0])


def event_loss_matrix(hazards, durations, grid):
    """Counterfactual per-(record, event) losses: event k observed at t_i.

    ``hazards`` is (n, K, m); the result is (n, K). These are the terms the
    indicator-weighted estimators select among, and the ones averaged by the
    oracle risk that ignores which event actually occurred.
    """
    hazards = np.asarray(hazards, dtype=np.float64)
    n, K, _ = hazards.shape
    out = np.empty((n, K))
    for k in range(K):
        out[:, k] = pch_terms(ad.Tensor(hazards[:, k, :]), grid, durations, np.ones(n)).data
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


# --- tape losses (training path) --------------------------------------------


def competing_survival_loss(hazard_tensors, grid, durations, events, propensities=None, floor=0.05):
    """Tape survival objective: IPS-weighted event terms plus the censored
    cumulative-hazard terms every record owes to its unobserved heads,
    normalized together by records times events.

    For head k the indicator ind marks records whose event is k. Because ind
    is 0 or 1, one ``pch_terms`` call with events=ind, weighted by
    ind/pi + (1 - ind), holds both the event and the censored parts. With one
    event type and unit propensities this is exactly the batch mean of the
    single-event loss. ``propensities`` is (n, K) or None for unit weights.
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
        terms = pch_terms(hazard_tensors[k], grid, durations, ind)
        part = ad.tsum(ad.mul(ad.Tensor(ind / pi[:, k] + (1.0 - ind)), terms))
        total = part if total is None else ad.add(total, part)
    return ad.mul(total, ad.Tensor(1.0 / (n * K)))


def mp_loss_tensor(prob, labels):
    """Mean binary cross-entropy of the any-event head."""
    d = np.asarray(labels, dtype=np.float64)
    pos = ad.mul(ad.Tensor(-d), ad.log(prob))
    neg = ad.mul(ad.Tensor(-(1.0 - d)), ad.log(ad.add(ad.Tensor(np.ones_like(d)), ad.neg(prob))))
    return ad.tmean(ad.add(pos, neg))


def ls_loss_tensor(pred, observed):
    """Mean squared error of the follow-up-time head over all records."""
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
