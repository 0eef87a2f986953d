"""Event-assignment probability estimation for loss debiasing.

One regularized logistic model per event type, one-vs-rest, fitted on the
records whose event was observed (censored records never contribute an
indicator term, so their assignment probability is never inverted).
Predicted probabilities are clipped from below before use so the inverse
weights stay bounded; an optional flag renormalizes the per-event sigmoids
to sum to one across events.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import logistic


@dataclass
class PropensityModel:
    """Per-event weight vectors and offsets with a clipping floor."""

    weights: np.ndarray  # (K, d)
    offsets: np.ndarray  # (K,)
    floor: float = 0.05
    renormalize: bool = False

    @property
    def n_events(self):
        return int(self.weights.shape[0])

    def predict(self, x):
        """Assignment probabilities (n, K), clipped to [floor, 1]."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.weights.shape[1]:
            raise ValueError(
                f"covariate dimension {x.shape[1]} does not match fitted dimension {self.weights.shape[1]}"
            )
        probs = logistic(x @ self.weights.T + self.offsets)
        if self.renormalize:
            probs = probs / probs.sum(axis=1, keepdims=True)
        probs = np.clip(probs, self.floor, 1.0)
        return probs[0] if single else probs

    def to_dict(self):
        return {
            "weights": self.weights.tolist(),
            "offsets": self.offsets.tolist(),
            "floor": self.floor,
            "renormalize": self.renormalize,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            np.asarray(payload["weights"], dtype=np.float64),
            np.asarray(payload["offsets"], dtype=np.float64),
            payload["floor"],
            payload["renormalize"],
        )


@dataclass
class PropensityConfig:
    l2: float = 1e-4
    floor: float = 0.05
    renormalize: bool = False
    max_iter: int = 5000
    tol: float = 1e-8
    step: float = 1.0


def _fit_binary(x, y, config):
    """Gradient descent on L2-regularized mean cross-entropy.

    The step size is halved whenever a step fails to decrease the loss; the
    offset is not regularized. Converges when the loss change drops below
    the tolerance.
    """
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    step = config.step

    def loss_and_grad(w, b):
        z = x @ w + b
        p = logistic(z)
        eps = 1e-12
        ll = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
        ll += 0.5 * config.l2 * float(w @ w)
        resid = p - y
        gw = x.T @ resid / n + config.l2 * w
        gb = float(resid.mean())
        return ll, gw, gb

    prev, gw, gb = loss_and_grad(w, b)
    for _ in range(config.max_iter):
        w_new = w - step * gw
        b_new = b - step * gb
        cur, gw_new, gb_new = loss_and_grad(w_new, b_new)
        if cur > prev:
            step *= 0.5
            if step < 1e-12:
                break
            continue
        w, b, gw, gb = w_new, b_new, gw_new, gb_new
        if abs(prev - cur) < config.tol:
            prev = cur
            break
        prev = cur
    return w, b


def fit(covariates, events, config=None):
    """Fit one-vs-rest logistic models on observed-event records.

    ``events`` are 1-based labels (no zeros); every event class in
    1..max(events) must be present.
    """
    config = config or PropensityConfig()
    x = np.asarray(covariates, dtype=np.float64)
    e = np.asarray(events)
    if np.any(e < 1):
        raise ValueError("propensity fitting expects observed events only (labels >= 1)")
    n_events = int(e.max())
    weights = np.zeros((n_events, x.shape[1]))
    offsets = np.zeros(n_events)
    for k in range(1, n_events + 1):
        y = (e == k).astype(np.float64)
        if y.sum() == 0:
            raise ValueError(f"event class {k} absent from the fitting data")
        weights[k - 1], offsets[k - 1] = _fit_binary(x, y, config)
    return PropensityModel(weights, offsets, config.floor, config.renormalize)


def design_matrix(schema, records):
    """Numeric design: standardized numericals plus one-hot categoricals.

    One-hot width is cardinality + 1 per field so unseen-category indices
    from a fitted schema stay representable.
    """
    n = len(records)
    blocks = []
    if schema.d_n:
        blocks.append(np.stack([r.numerical for r in records]))
    for i, f in enumerate(schema.categorical):
        onehot = np.zeros((n, f.cardinality + 1))
        idx = np.array([r.categorical[i] for r in records], dtype=np.intp)
        onehot[np.arange(n), idx] = 1.0
        blocks.append(onehot)
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
