"""Event-assignment probability estimation for loss debiasing.

One regularized logistic model per event type, one-vs-rest, fitted on the
records whose event was observed (censored records never contribute an
indicator term, so their assignment probability is never inverted).
Predicted probabilities are clipped from below before use so the inverse
weights stay bounded; an optional flag renormalizes the per-event sigmoids
to sum to one across events.

Each fit minimizes the L2-penalized mean cross-entropy exactly, by damped
Newton steps (iteratively reweighted least squares) with a backtracking line
search, and stops once the Newton decrement is a negligible share of the
objective. With ``l2 = 0`` the one-hot blocks are collinear with the offset;
the fit then converges to the minimum-norm optimum. Separable classes have no
optimum at ``l2 = 0``: their weights grow without end, and the fit raises
``ValueError`` naming the event once it reaches ``MAX_ITER`` iterations. A
0/1 column (such as one one-hot level) set only on records of one event, or
only on records of the others, leaves no optimum either (quasi-complete
separation); at ``l2 = 0`` ``fit`` names the column and the event before it
starts.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import logistic


@dataclass
class PropensityModel:
    """Per-event weight vectors and offsets with a clipping floor."""

    weights: np.ndarray  # (K, d)
    offsets: np.ndarray  # (K,)
    floor: float = 0.05
    renormalize: bool = False
    # How ``fit`` ended, per event: Newton iterations run and whether the
    # decrement test passed. Not part of ``to_dict``.
    iterations: tuple = field(default=(), compare=False)
    converged: tuple = field(default=(), compare=False)

    def predict(self, x):
        """Assignment probabilities (n, K), clipped to [floor, 1]."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.weights.shape[1]:
            raise ValueError(
                f"covariate dimension {x.shape[1]} does not match fitted dimension {self.weights.shape[1]}"
            )
        probs = logistic(x @ self.weights.T + self.offsets)
        if self.renormalize:
            probs = probs / probs.sum(axis=1, keepdims=True)
        return np.clip(probs, self.floor, 1.0)

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


# Newton iterations allowed per one-vs-rest fit. A penalized fit converges in
# a dozen or fewer; at l2 = 0 separable classes push the weights out forever.
MAX_ITER = 50
# Converged once the Newton decrement falls below this share of the objective.
TOL = 1e-12
# Armijo constant of the backtracking line search.
ARMIJO = 0.25


def _fit_binary(x, y, l2):
    """Damped Newton on ``mean(log(1 + exp(z)) - y*z) + l2/2*|w|^2`` with
    ``z = x @ w + b``; the offset ``b`` is not penalized.

    Returns ``(w, b, iterations, converged)``. Each iteration takes the
    Newton direction of a slightly ridged Hessian and halves it until the
    objective falls by ``ARMIJO`` times the decrement ``-grad @ direction``.
    Once the decrement is below ``TOL`` times the objective, one last full
    step ends the fit, converged. A line search that finds no decrease has
    reached the objective's rounding floor and ends it unconverged. Raises
    ``ValueError`` after ``MAX_ITER`` iterations.
    """
    n, d = x.shape
    a = np.hstack([x, np.ones((n, 1))])
    penalty = np.append(np.full(d, l2), 0.0)
    sign = 1.0 - 2.0 * y  # log(1 + exp(z)) - y*z = log(1 + exp(sign*z)) as y is 0 or 1
    theta = np.zeros(d + 1)

    def objective(theta):
        return np.mean(np.logaddexp(0.0, sign * (a @ theta))) + 0.5 * float(penalty @ (theta * theta))

    f = objective(theta)
    for iteration in range(1, MAX_ITER + 1):
        q = logistic(sign * (a @ theta))  # |p - y|, exact also where p rounds to y
        grad = a.T @ (sign * q) / n + penalty * theta
        root = a * np.sqrt(q * (1.0 - q) / n)[:, None]
        hessian = root.T @ root + np.diag(penalty)
        # At l2 = 0 every one-hot block sums to the offset column, so the Hessian
        # is singular. A ridge far below its curvature (and above zero where it
        # underflows) keeps each direction in its range, so the iterates stay
        # in the subspace of the minimum-norm optimum.
        hessian += (1e-8 * np.trace(hessian) / (d + 1) + 1e-300) * np.eye(d + 1)
        direction = -np.linalg.solve(hessian, grad)
        decrement = -float(grad @ direction)
        if decrement < TOL * f:
            theta = theta + direction
            return theta[:d], theta[d], iteration, True
        t = 1.0
        while (f_new := objective(theta + t * direction)) > f - ARMIJO * t * decrement:
            t *= 0.5
            if t < 1e-10:
                return theta[:d], theta[d], iteration, False
        theta, f = theta + t * direction, f_new
    raise ValueError(f"no convergence in {MAX_ITER} Newton iterations")


def fit(covariates, events, l2=1e-4, floor=0.05, renormalize=False):
    """Fit one-vs-rest logistic models on observed-event records, with L2
    penalty ``l2`` on the weights; the model clips at ``floor``. With two
    events only event 1's model is fitted: event 2's is its exact negation,
    the fit that ``_fit_binary`` would make of it, with event 1's iteration
    count and convergence flag.

    ``events`` are 1-based labels (no zeros); every event class in
    1..max(events) must be present. A fit that reaches ``MAX_ITER`` raises
    ``ValueError`` naming its event. At ``l2 = 0``, a 0/1 column set only on
    records of one event, or only on records of the others, raises
    ``ValueError`` naming the column and the event before any fit.
    """
    x = np.asarray(covariates, dtype=np.float64)
    e = np.asarray(events)
    if np.any(e < 1):
        raise ValueError("propensity fitting expects observed events only (labels >= 1)")
    n_events = int(e.max())
    if n_events < 2:
        raise ValueError("propensity fitting needs two or more event classes")
    held = np.bincount(e, minlength=n_events + 1)[1:] > 0  # no bare ``np.unique``, which imports numpy.ma
    if not held.all():
        raise ValueError(f"event class {held.argmin() + 1} absent from the fitting data")
    if l2 == 0:
        # Without a penalty, the weight of a 0/1 column set only on records of
        # one event, or only on records of the others, grows without end.
        ones = x == 1
        for j in np.flatnonzero((ones | (x == 0)).all(axis=0) & ones.any(axis=0)):
            held = np.bincount(e[ones[:, j]], minlength=n_events + 1)[1:] > 0
            if not held.all():
                which, k = ("every", held.argmax() + 1) if held.sum() == 1 else ("no", held.argmin() + 1)
                raise ValueError(f"propensity fit: {which} record with design column {j} set holds "
                                 f"event {k}, so the fit has no finite optimum; "
                                 f"propensity_l2 must be above 0")
    weights = np.zeros((n_events, x.shape[1]))
    offsets = np.zeros(n_events)
    iterations, converged = [], []
    for k in range(1, n_events + 1):
        if n_events == 2 and k == 2:
            # event 2's labels are 1 - event 1's, which flips ``sign`` in
            # ``_fit_binary``: each Newton iterate is event 1's negated, and
            # a zero entry is +0.0 in both, as 0.0 - w keeps it
            weights[1], offsets[1] = 0.0 - weights[0], 0.0 - offsets[0]
        else:
            y = (e == k).astype(np.float64)
            try:
                weights[k - 1], offsets[k - 1], n_iter, done = _fit_binary(x, y, l2)
            except ValueError as err:
                raise ValueError(f"propensity fit for event {k}: {err}; the classes may be "
                                 f"separable, which needs propensity_l2 above 0") from None
        iterations.append(n_iter)
        converged.append(done)
    return PropensityModel(weights, offsets, floor, renormalize, tuple(iterations), tuple(converged))


def design_matrix(schema, cat, num):
    """Numeric design: standardized numericals plus one-hot categoricals.

    One-hot width is cardinality + 1 per field so unseen-category indices
    from a fitted schema stay representable.
    """
    n = len(num)
    blocks = [num] if schema.d_n else []
    for i, f in enumerate(schema.categorical):
        onehot = np.zeros((n, f.cardinality + 1))
        onehot[np.arange(n), cat[:, i]] = 1.0
        blocks.append(onehot)
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
