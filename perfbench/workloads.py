"""Workload definitions and the input generator.

The generator belongs to the benchmark, not to the program, so a change to
``survformer synth`` cannot change what the benchmark feeds the program. It
writes the same shape of table as ``survformer synth`` (standard-normal
numerical covariates, exponential latent times per event, softmax event
assignment, a censored fraction shortened by a uniform factor) and can add
categorical fields and missing cells. The ground-truth coefficients come from
a fixed per-workload seed and training uses the config's fixed seed; the
workload seed draws the sample only, and the program sees nothing of it
but the CSV. That keeps concordance steadier from seed to seed.
"""

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    numerical: int
    categorical: tuple  # cardinality of each categorical field
    missing: float  # share of covariate cells left empty
    events: int
    censoring: float
    config: dict  # training settings passed with --config
    times: int  # query times handed to predict
    coef_seed: int


WORKLOADS = {
    w.name: w
    for w in (
        # Training dominates: 19 batches of 64 per epoch for 20 epochs, so
        # per-tape-node Python overhead is the cost; the test fold is small.
        # Patience equals the epoch count, so every run takes the same steps.
        Workload(
            "fit-2k", 2000, 4, (), 0.0, 2, 0.25,
            {"batch_size": 64, "max_epochs": 20, "patience": 20},
            4, 11,
        ),
        # Evaluation dominates: a 6,000-record test fold makes the n x n
        # concordance path the cost, and km_censoring scans 12,000 training
        # rows. One large-batch epoch keeps the tape a minor cost.
        Workload(
            "eval-20k", 20000, 4, (), 0.0, 2, 0.25,
            {"batch_size": 512, "max_epochs": 1, "patience": 1, "learning_rate": 0.005},
            5, 11,
        ),
        # Ingestion and inference dominate: categorical schema fitting,
        # imputation and take_rows embeddings, one large forward pass with
        # no backward step, and 200k curve rows from the CSV writer.
        Workload(
            "predict-wide", 10000, 8, (3, 6, 12, 24), 0.02, 2, 0.25,
            {"batch_size": 256, "max_epochs": 1, "patience": 1, "learning_rate": 0.005},
            20, 12,
        ),
    )
}


def generate(workload, seed):
    """Draw the workload's table: (header, rows of strings, query times)."""
    w = workload
    coef_rng = np.random.default_rng(w.coef_seed)
    risk = coef_rng.normal(0.0, 0.8, size=(w.events, w.numerical))
    assign = coef_rng.normal(0.0, 0.7, size=(w.events, w.numerical))
    cat_effects = [coef_rng.normal(0.0, 0.5, size=(w.events, c)) for c in w.categorical]

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((w.n, w.numerical))
    levels = [rng.integers(0, c, size=w.n) for c in w.categorical]
    log_rate = x @ risk.T
    for effect, level in zip(cat_effects, levels):
        log_rate += effect[:, level].T
    latent = rng.exponential(1.0 / np.exp(log_rate))
    logits = x @ assign.T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.uniform(size=w.n)
    assigned = np.minimum((u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1), w.events - 1)
    durations = latent[np.arange(w.n), assigned]
    events = assigned + 1
    censored = rng.choice(w.n, size=int(round(w.censoring * w.n)), replace=False)
    durations[censored] *= rng.uniform(size=censored.size)
    events[censored] = 0

    cells = [[repr(float(v)) for v in col] for col in x.T]
    cells += [[f"c{j}_{v}" for v in level] for j, level in enumerate(levels)]
    if w.missing:
        hole = rng.uniform(size=(len(cells), w.n)) < w.missing
        for col, holes in zip(cells, hole):
            for i in np.flatnonzero(holes):
                col[i] = ""
    header = [f"x{j + 1}" for j in range(w.numerical)]
    header += [f"cat{j + 1}" for j in range(len(w.categorical))]
    header += ["duration", "event"]
    rows = list(zip(*cells, (repr(float(t)) for t in durations), (str(int(e)) for e in events)))
    quantiles = np.arange(1, w.times + 1) / (w.times + 1)
    times = [float(t) for t in np.quantile(durations, quantiles)]
    return header, rows, times


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
