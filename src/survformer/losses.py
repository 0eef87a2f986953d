"""Training objectives: piecewise-constant-hazard likelihood terms, the
inverse-propensity-weighted competing-events loss, auxiliary task losses,
and their weighted total.

``pch_terms`` is the one implementation of the hazard likelihood term and
its closed-form gradient; each duration's bin and elapsed fraction come from
``TimeGrid.locate``. Each training loss takes head outputs as arrays and
returns its value and closed-form VJP. ``competing_survival_loss`` folds the
hazard terms of the K stacked event heads, in one ``pch_terms`` pass, with the
IPS weights and the sum over heads; it reads each record's bin, elapsed
fraction, indicators and weights from the ``SurvivalTargets`` that
``survival_targets`` computes once per fold. It adds the censored
cause-specific contributions that every record owes to the heads of
unobserved events, and it does not clip the propensities it inverts:
``PropensityModel.predict`` did. ``mp_loss_tensor`` and ``ls_loss_tensor``
are the auxiliary losses; ``total_loss_tensor`` weights them by the epoch's
``(gamma1, gamma2)``, which ``TrainConfig.gammas`` anneals, and returns the
total and one VJP, which training wraps as each batch's loss Tensor. The
benchmark's tracer wraps these four by name, so the last three keep
``_tensor`` names until it wraps new ones.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class LossBreakdown:
    """The gamma-weighted total and its parts for one batch or epoch."""

    total: float
    survival: float
    mp: float
    ls: float
    gamma1: float
    gamma2: float


# --- the piecewise-constant-hazard term -------------------------------------


def pch_terms(h, kappa, rho, events):
    """Per-record piecewise-constant-hazard loss terms and their VJP.

    ``h`` is a (B, m) array of per-bin hazards; ``kappa`` and ``rho`` are the
    (B,) zero-based bins holding the durations and their elapsed fractions,
    as ``TimeGrid.locate`` gives them; ``events`` is (B,), 1.0 where the
    record's event is observed for this head and 0.0 for a censored
    contribution. Returns the (B,) terms -e*log(h[kappa]) + h[kappa]*rho +
    sum of the bins before kappa, and the function that maps a (B,) cotangent
    g to the (B, m) hazard gradient: g on every earlier bin and
    g*rho - e*g/h[kappa] on bin kappa. The hazard in each record's bin must
    be strictly positive.
    """
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


# --- training losses: values and closed-form VJPs ----------------------------


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
    """Training survival objective and its VJP: IPS-weighted event terms
    plus the censored cumulative-hazard terms every record owes to its
    unobserved heads, normalized together by records times events.

    ``hazards`` is the (K, B, m) array of the K event heads and ``targets``
    the batch's ``SurvivalTargets``. Head k's indicator ind marks records
    whose event is k. Because ind is 0 or 1, the ``pch_terms`` values with
    events=ind, weighted by ind/pi + (1 - ind), hold both the event and the
    censored parts. All K·B terms come from one ``pch_terms`` pass; each head's
    weighted terms are summed, and the K sums added in head order. With one
    event type and unit propensities this is exactly the batch mean of the
    single-event loss. The VJP returns the (K, B, m) hazard cotangent.
    """
    K, n, m = hazards.shape
    terms, vjp = pch_terms(hazards.reshape(K * n, m), targets.kappa.reshape(-1), targets.rho.reshape(-1),
                      targets.ind.reshape(-1))
    scale = 1.0 / (n * K)
    total = 0.0
    for weighted in targets.weight * terms.reshape(K, n):
        total = total + weighted.sum()
    return total * scale, lambda g: vjp((g * scale * targets.weight).reshape(-1)).reshape(K, n, m)


def mp_loss_tensor(prob, labels):
    """Mean binary cross-entropy of the any-event probabilities ``prob``
    against 0/1 ``labels``, and its VJP onto ``prob``."""
    d = np.asarray(labels, dtype=np.float64)
    q = 1.0 - prob
    for x in (prob, q):
        if np.any(x <= 0):
            raise ValueError("mp loss: log requires strictly positive input")
    scale = 1.0 / prob.size
    return ((-(d * np.log(prob) + (1.0 - d) * np.log(q))).sum() * scale,
            lambda g: g * scale * (1.0 - d) / q - g * scale * d / prob)


def ls_loss_tensor(pred, observed):
    """Mean squared error of the follow-up-time predictions ``pred`` over
    all records, and its VJP onto ``pred``."""
    diff = pred - np.asarray(observed, dtype=np.float64)
    scale = 1.0 / diff.size
    return (diff * diff).sum() * scale, lambda g: g * scale * diff + g * scale * diff


def total_loss_tensor(survival, mp, ls, gammas):
    """The total ``survival + (gamma1*mp + gamma2*ls)`` of three ``(value,
    vjp)`` pairs at the weights ``gammas = (gamma1, gamma2)``, its breakdown,
    and its VJP, which maps g to the parts' VJPs at g, g·gamma1 and g·gamma2:
    the hazard, mp and ls cotangents."""
    g1, g2 = gammas
    (survival, survival_vjp), (mp, mp_vjp), (ls, ls_vjp) = survival, mp, ls
    total = survival + (mp * g1 + ls * g2)
    breakdown = LossBreakdown(float(total), float(survival), float(mp), float(ls), g1, g2)
    return total, breakdown, lambda g: (survival_vjp(g), mp_vjp(g * g1), ls_vjp(g * g2))
