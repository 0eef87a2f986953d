"""Training objectives: piecewise-constant-hazard likelihood terms, the
inverse-propensity-weighted competing-events loss, auxiliary task losses,
and the annealed total.

``_pch`` is the one implementation of the hazard likelihood term and its
closed-form gradient, and ``pch_terms`` is its array form; each duration's
bin and elapsed fraction come from ``TimeGrid.locate``. The array estimators
(``pch_loss``, ``event_loss_matrix``, ``ips_loss``, ``naive_competing_loss``)
read its values. On the training tape each loss is one op:
``competing_survival_loss`` folds the hazard terms of the K stacked event
heads, in one ``_pch`` pass, with the IPS weights and the sum over heads; it
reads each record's bin, elapsed fraction, indicators and weights from the
``SurvivalTargets`` that ``survival_targets`` computes once per fold.
``mp_loss_tensor`` and ``ls_loss_tensor`` are the auxiliary losses;
``total_loss_tensor`` is the annealed total. The indicator-weighted
estimators implement the printed formulas exactly; the censored
cause-specific contributions that every record owes to the heads of
unobserved events are added only by ``competing_survival_loss``, which does
not clip the propensities it inverts: ``PropensityModel.predict`` did.
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
    """Auxiliary-task weights: both ramp linearly from the initial values
    down to zero over ``horizon`` epochs."""

    initial: tuple = (1.0, 1.0)
    horizon: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("anneal horizon must be at least 1")

    def gammas(self, epoch):
        frac = max(0.0, 1.0 - epoch / self.horizon)
        return (self.initial[0] * frac, self.initial[1] * frac)


# --- the piecewise-constant-hazard term -------------------------------------


def _pch(h, kappa, rho, events):
    """Values of ``pch_terms`` for the (B, m) hazard array ``h``, and the
    function that maps a (B,) cotangent to the (B, m) hazard gradient."""
    events = np.asarray(events, dtype=np.float64)
    rows = np.arange(h.shape[0])
    h_at = h[rows, kappa]
    if np.any(h_at <= 0):
        raise ValueError("survival loss: log requires strictly positive input")
    cum = np.cumsum(h, axis=1)
    prior = np.where(kappa > 0, cum[rows, np.maximum(kappa - 1, 0)], 0.0)

    def vjp(g):
        grad = (np.arange(h.shape[1])[None, :] < kappa[:, None]) * g[:, None]
        grad[rows, kappa] = g * rho - events * g / h_at
        return grad

    return -events * np.log(h_at) + h_at * rho + prior, vjp


def pch_terms(hazards, grid, durations, events):
    """Per-record piecewise-constant-hazard loss terms and their VJP.

    ``hazards`` is a (B, m) array of positive per-bin hazards; ``events`` is
    (B,), 1.0 where the record's event is observed for this head and 0.0 for
    a censored contribution. Returns the (B,) terms
    -e*log(h[kappa]) + h[kappa]*rho + sum of the bins before kappa, with kappa
    the bin holding the duration and rho its elapsed fraction (durations past
    the last cut fall in the last bin), and the function that maps a (B,)
    cotangent g to the (B, m) hazard gradient: g on every earlier bin and
    g*rho - e*g/h[kappa] on bin kappa.
    """
    return _pch(np.asarray(hazards, dtype=np.float64), *grid.locate(durations), events)


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
    terms, _ = pch_terms(hazards[None, :], grid, np.array([t]), np.array([e]))
    return float(terms[0])


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
        out[:, k] = pch_terms(hazards[:, k, :], grid, durations, np.ones(n))[0]
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


@dataclass
class SurvivalTargets:
    """What ``competing_survival_loss`` reads of each of n records for K
    event heads, computed once per fold by ``survival_targets``;
    ``targets[idx]`` holds the records ``idx`` picks. Each array is (K, n),
    one row per head, so a batch's rows flatten to the (K·B,) rows of the
    stacked hazards."""

    kappa: np.ndarray  # the duration's zero-based bin
    rho: np.ndarray  # the elapsed fraction of that bin
    ind: np.ndarray  # 1.0 where the record's event is the head's, else 0.0
    weight: np.ndarray  # ind / pi + (1 - ind)

    def __getitem__(self, idx):
        return SurvivalTargets(*(a.take(idx, axis=1) for a in (self.kappa, self.rho, self.ind, self.weight)))


def survival_targets(grid, durations, events, propensities):
    """The ``SurvivalTargets`` of records with ``durations`` and 1-based
    ``events`` (0 for censored) on ``grid``, for one head per column of the
    (n, K) ``propensities``; ones give unit weights. The propensities are
    inverted as they are, unclipped, and must be strictly positive."""
    pi = np.asarray(propensities, dtype=np.float64).T
    if np.any(pi <= 0):
        raise ValueError("propensities must be strictly positive")
    ind = (np.asarray(events) == np.arange(1, len(pi) + 1)[:, None]).astype(np.float64)
    kappa, rho = (np.broadcast_to(a, ind.shape) for a in grid.locate(durations))
    return SurvivalTargets(kappa, rho, ind, ind / pi + (1.0 - ind))


def competing_survival_loss(hazards, targets):
    """Tape survival objective, as one op: IPS-weighted event terms plus the
    censored cumulative-hazard terms every record owes to its unobserved
    heads, normalized together by records times events.

    ``hazards`` is the (K, B, m) Tensor of the K event heads and ``targets``
    the batch's ``SurvivalTargets``. Head k's indicator ind marks records
    whose event is k. Because ind is 0 or 1, the ``pch_terms`` values with
    events=ind, weighted by ind/pi + (1 - ind), hold both the event and the
    censored parts. All K·B terms come from one ``_pch`` pass; each head's
    weighted terms are summed, and the K sums added in head order. With one
    event type and unit propensities this is exactly the batch mean of the
    single-event loss.
    """
    K, n, m = hazards.data.shape
    terms, vjp = _pch(hazards.data.reshape(K * n, m), targets.kappa.reshape(-1), targets.rho.reshape(-1),
                      targets.ind.reshape(-1))
    scale = 1.0 / (n * K)
    total = 0.0
    for weighted in targets.weight * terms.reshape(K, n):
        total = total + weighted.sum()

    def back(g):
        hazards._accumulate(vjp((g * scale * targets.weight).reshape(-1)).reshape(K, n, m))

    return ad.node(total * scale, (hazards,), back)


def _mean_op(values, parent, vjp):
    """The mean of the per-record ``values`` as one tape op on ``parent``.
    ``vjp`` maps the cotangent each value receives, one scalar for all, to
    ``parent``'s gradient."""
    scale = 1.0 / values.size

    def back(g):
        parent._accumulate(vjp(g * scale))

    return ad.node(values.sum() * scale, (parent,), back)


def mp_loss_tensor(prob, labels):
    """Mean binary cross-entropy of the any-event head, as one tape op."""
    d = np.asarray(labels, dtype=np.float64)
    p = prob.data
    q = 1.0 - p
    for x in (p, q):
        if np.any(x <= 0):
            raise ValueError("mp loss: log requires strictly positive input")
    return _mean_op(-(d * np.log(p) + (1.0 - d) * np.log(q)), prob,
                    lambda c: c * (1.0 - d) / q - c * d / p)


def ls_loss_tensor(pred, observed):
    """Mean squared error of the follow-up-time head over all records, as
    one tape op."""
    diff = pred.data - np.asarray(observed, dtype=np.float64)
    return _mean_op(diff * diff, pred, lambda c: c * diff + c * diff)


def total_loss_tensor(survival, mp, ls, schedule, epoch):
    """The annealed total ``survival + (gamma1*mp + gamma2*ls)`` as one tape
    op, and the matching numeric breakdown."""
    g1, g2 = schedule.gammas(epoch)
    parts = (survival, mp, ls)

    def back(g):
        for part, grad in zip(parts, (g, g * g1, g * g2)):
            part._accumulate(grad)

    total = ad.node(survival.data + (mp.data * g1 + ls.data * g2), parts, back)
    breakdown = LossBreakdown(
        total=float(total.data),
        survival=float(survival.data),
        mp=float(mp.data),
        ls=float(ls.data),
        gamma1=g1,
        gamma2=g2,
    )
    return total, breakdown
