"""Fitting and evaluation orchestration.

Training fits the assignment-propensity model first (competing-events data
only), then runs mini-batch Adam on the annealed multi-task objective with
early stopping on validation loss; the best-epoch parameter snapshot is
restored at the end. Training batches and the validation fold share one loss
function over the head output arrays; a batch's tape is its total, one node
whose VJP runs the network's. The validation fold is forwarded in
``INFER_CHUNK``-record chunks, as inference is, and its losses are taken once
over all records. Each fold's survival targets (bins, elapsed fractions,
indicators, IPS weights) are computed once per fit, and a batch indexes the
training fold's. Evaluation converts hazards to survival curves and reports
time-dependent concordance per event at quantile horizons of the evaluated
records' event times.
"""

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import propensity as prop
from .evaluation import (
    UndefinedMetricError,
    ctd,
    km_censoring,
    quantile_horizons,
    survival_matrix,
)
from .data import echo, read_json
from .model import BOOL, FLOAT, INT, NONNEGATIVE, OBJECT, POSITIVE, check_settings, judge, setting
from .model import ModelConfig, SurvivalTransformer
from .optim import Adam


class TrainingDiverged(RuntimeError):
    """Raised when a loss stops being finite; the message names which."""


# The model's fields that a config file sets; training sets n_events.
MODEL_KEYS = [f.name for f in fields(ModelConfig) if f.name != "n_events"]
PAIR = ("a list of two finite numbers", lambda v: isinstance(v, (list, tuple)) and len(v) == 2
        and all(FLOAT[1](x) for x in v))


@dataclass
class TrainConfig:
    """Training settings and the network's shape (``model``; training sets its
    ``n_events``). The flat JSON form (``to_dict``, ``from_dict``) lists the
    model's fields, less ``n_events``, in place of ``model``."""

    learning_rate: float = setting(FLOAT, NONNEGATIVE, default=1e-3)
    weight_decay: float = setting(FLOAT, NONNEGATIVE, default=1e-4)
    batch_size: int = setting(INT, POSITIVE, default=64)
    max_epochs: int = setting(INT, POSITIVE, default=50)
    patience: int = setting(INT, POSITIVE, default=5)
    anneal_horizon: int = setting(INT, NONNEGATIVE, default=0)  # 0 means max_epochs - 1
    gamma_initial: tuple = setting(PAIR, ("nonnegative", lambda v: min(v) >= 0), default=(1.0, 1.0))
    model: ModelConfig = setting(("a ModelConfig", lambda v: isinstance(v, ModelConfig)),
                                 default_factory=ModelConfig)
    grid_scheme: str = setting(("'quantile' or 'uniform'", lambda v: v in ("quantile", "uniform")),
                               default="quantile")
    propensity_floor: float = setting(FLOAT, ("in (0, 1]", lambda v: 0 < v <= 1), default=0.05)
    propensity_renormalize: bool = setting(BOOL, default=False)
    propensity_l2: float = setting(FLOAT, NONNEGATIVE, default=1e-4)
    seed: int = setting(INT, NONNEGATIVE, default=0)

    def __post_init__(self):
        check_settings(self)
        self.gamma_initial = tuple(self.gamma_initial)

    def schedule(self):
        horizon = self.anneal_horizon if self.anneal_horizon > 0 else max(1, self.max_epochs - 1)
        return L.AnnealSchedule(initial=self.gamma_initial, horizon=horizon)

    def to_dict(self):
        flat = {}
        for name, value in vars(self).items():
            flat.update({key: getattr(value, key) for key in MODEL_KEYS} if name == "model" else {name: value})
        return flat

    @classmethod
    def from_dict(cls, payload):
        judge(payload, ("a JSON object", OBJECT[1]), "a config")
        unknown = set(payload) - set(cls().to_dict())
        if unknown:
            raise ValueError(f"unknown config fields: {echo(sorted(unknown))}")
        model = {key: payload[key] for key in MODEL_KEYS if key in payload}
        rest = {key: value for key, value in payload.items() if key not in model}
        return cls(model=ModelConfig(**model), **rest)

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(read_json(path, "config"))


@dataclass
class EpochRecord:
    epoch: int
    train: L.LossBreakdown
    validation_loss: float
    gamma1: float
    gamma2: float


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)
    best_epoch: int = -1

    def to_dict(self):
        return {"best_epoch": self.best_epoch, "epochs": [asdict(e) for e in self.epochs]}


def _batch_loss(model, cat, num, t, e, targets, schedule, epoch):
    """One batch's annealed total loss, as one tape node whose VJP runs
    ``ForwardPass.backward`` on the loss's head-output cotangents, and its
    breakdown. Raises ``ValueError`` as ``_loss`` does."""
    fp = model.forward_batch(cat, num)
    total, bd, vjp = _loss(fp.hazards, fp.event_prob, fp.time_pred, targets, t, e, schedule, epoch)
    return ad.node(total, (), lambda g: fp.backward(*vjp(g))), bd


def _validation_loss(model, records, targets, schedule, epoch):
    """The annealed total loss of ``records`` and its breakdown, from one
    forward in ``INFER_CHUNK`` record chunks: only the head outputs are kept
    and the losses are taken once over all records."""
    hazards, *aux = model.predict_outputs(records.cat, records.num)
    return _loss(hazards.transpose(1, 0, 2), *aux, targets, records.t, records.e, schedule, epoch)[:2]


def _loss(hazards, event_prob, time_pred, targets, t, e, schedule, epoch):
    """The annealed total loss of the head output arrays for the survival
    ``targets`` and labels ``t`` and ``e``, its breakdown, and its VJP onto
    the three outputs. Raises ``ValueError`` naming the loss (survival, mp,
    ls or total) that rejects its input or leaves the finite range."""
    with np.errstate(all="ignore"):  # checked below, once
        survival = L.competing_survival_loss(hazards, targets)
        mp = L.mp_loss_tensor(event_prob, (e > 0).astype(np.float64))
        ls = L.ls_loss_tensor(time_pred, t)
        total, bd, vjp = L.total_loss_tensor(survival, mp, ls, schedule, epoch)
    for name in ("survival", "mp", "ls", "total"):
        if not np.isfinite(getattr(bd, name)):
            raise ValueError(f"{name} loss is {getattr(bd, name)}")
    return total, bd, vjp


def train(config, train_records, val_records, schema, grid):
    """Fit a model; returns it with the per-epoch history.

    The schema and grid must have been fitted on the training fold. The
    number of competing events is taken from the training labels; with a
    single event type the survival term reduces to the plain batch-mean
    piecewise-constant-hazard loss and no propensity model is fitted.
    """
    if not len(train_records) or not len(val_records):
        raise ValueError("training and validation sets must both be nonempty")
    cat, num, t, e = train_records.cat, train_records.num, train_records.t, train_records.e
    vcat, vnum, ve = val_records.cat, val_records.num, val_records.e
    n_events = max(int(e.max()), 1)
    if ve.max() > n_events:
        raise ValueError(f"validation set has event label {int(ve.max())} unseen in training")

    pi, val_pi = np.ones((len(t), 1)), np.ones((len(ve), 1))  # unit weights for one event type
    propensity_model = None
    if n_events >= 2:
        observed = e > 0
        if not observed.any():
            raise ValueError("no observed events in the training fold")
        design = prop.design_matrix(schema, cat, num)
        propensity_model = prop.fit(
            design[observed], e[observed], l2=config.propensity_l2,
            floor=config.propensity_floor, renormalize=config.propensity_renormalize,
        )
        pi = propensity_model.predict(design)
        val_pi = propensity_model.predict(prop.design_matrix(schema, vcat, vnum))
    targets = L.survival_targets(grid, t, e, pi)
    val_targets = L.survival_targets(grid, val_records.t, ve, val_pi)

    model = SurvivalTransformer(
        replace(config.model, time_bins=grid.m, n_events=n_events), schema, grid, seed=config.seed
    )
    optimizer = Adam(model.data, model.grad, lr=config.learning_rate, weight_decay=config.weight_decay)
    schedule = config.schedule()
    rng = np.random.default_rng(config.seed)

    history = TrainHistory()
    best_val = np.inf
    best_snapshot = None
    since_best = 0
    n = len(train_records)

    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        sums = np.zeros(4)  # total, survival, mp, ls weighted by batch size
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            try:
                total, bd = _batch_loss(model, cat[idx], num[idx], t[idx], e[idx], targets[idx], schedule, epoch)
            except (ValueError, FloatingPointError) as err:
                raise TrainingDiverged(f"nonfinite loss at epoch {epoch}, batch {batch_no}: {err}") from err
            ad.backward(total)
            optimizer.step()
            sums += len(idx) * np.array([bd.total, bd.survival, bd.mp, bd.ls])
        g1, g2 = schedule.gammas(epoch)
        train_bd = L.LossBreakdown(*(sums / n), gamma1=g1, gamma2=g2)

        try:
            val_total, _ = _validation_loss(model, val_records, val_targets, schedule, epoch)
        except (ValueError, FloatingPointError) as err:
            raise TrainingDiverged(f"nonfinite validation loss at epoch {epoch}: {err}") from err
        val_loss = float(val_total)
        history.epochs.append(EpochRecord(epoch, train_bd, val_loss, g1, g2))

        if val_loss < best_val:
            best_val = val_loss
            history.best_epoch = epoch
            best_snapshot = model.data.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    if best_snapshot is not None:
        model.data[:] = best_snapshot
    return model, history, propensity_model


def predict(model, records, times):
    """Survival values for each record, event, and query time: (n, K, T)."""
    return survival_matrix(model.predict_hazards(records.cat, records.num), model.grid, times)


def evaluate(model, test_records, censoring, quantiles=(0.25, 0.5, 0.75)):
    """Concordance per event at quantile horizons of the test event times."""
    t, e = test_records.t, test_records.e
    if e.max() > model.config.n_events:
        raise ValueError(
            f"event label {int(e.max())} exceeds the model's K={model.config.n_events} event types"
        )
    hazards = model.predict_hazards(test_records.cat, test_records.num)
    report = {"quantiles": list(quantiles), "events": []}
    for k in range(1, model.config.n_events + 1):
        event_durations = t[e == k]
        if event_durations.size == 0:
            raise UndefinedMetricError(f"no event-{k} records in the evaluated set")
        horizons = quantile_horizons(event_durations, quantiles)
        block = {"event": k, "horizons": []}
        surv = survival_matrix(hazards[:, k - 1, :], model.grid, horizons)  # (n, horizons)
        for j, (q, tau) in enumerate(zip(quantiles, horizons)):
            value, pairs = ctd(surv[:, j], t, e, tau, k, censoring)
            block["horizons"].append(
                {"quantile": float(q), "time": float(tau), "ctd": value, "pairs": pairs}
            )
        report["events"].append(block)
    return report


def fit_censoring(train_records):
    return km_censoring(train_records.t, train_records.e)
