"""Output checks that decide whether a stage run counts as failed.

The concordance pair counts are recomputed here by sorting, with no n x n
arrays, over the test fold re-derived from the checkpoint's split recipe.
"""

import json

import numpy as np

QUANTILES = (0.25, 0.5, 0.75)  # the eval command's default horizons
MONOTONE_TOLERANCE = 1e-12  # the slack survformer's SurvivalCurve allows


class CheckFailed(Exception):
    """An output that violates the documented contract."""


def check_checkpoint(path):
    """The checkpoint parses and carries the split recipe; returns it."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    split = payload.get("extra", {}).get("split")
    if not split or "fractions" not in split or "seed" not in split:
        raise CheckFailed(f"{path} has no split recipe")
    return split


def comparable_pairs(durations, events, event_k, quantile):
    """Pairs (i, j) with record i an event-k failure by the horizon and
    t_i < t_j, the horizon being the quantile of event-k durations."""
    tau = float(np.quantile(durations[events == event_k], quantile))
    eligible = (events == event_k) & (durations <= tau)
    ordered = np.sort(durations)
    later = durations.size - np.searchsorted(ordered, durations[eligible], side="right")
    return tau, int(later.sum())


def check_metrics(path, durations, events, n_events):
    """K events x 3 quantiles, concordance in [0, 1], pair counts exact.

    ``durations`` and ``events`` describe the evaluated test fold. Returns
    the concordance values.
    """
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    blocks = report.get("events", [])
    if [b.get("event") for b in blocks] != list(range(1, n_events + 1)):
        raise CheckFailed(f"{path}: expected events 1..{n_events}")
    values = []
    for block in blocks:
        k = block["event"]
        horizons = block.get("horizons", [])
        if [h.get("quantile") for h in horizons] != list(QUANTILES):
            raise CheckFailed(f"{path}: event {k} lacks quantiles {QUANTILES}")
        for h in horizons:
            tau, pairs = comparable_pairs(durations, events, k, h["quantile"])
            if not 0.0 <= h["ctd"] <= 1.0:
                raise CheckFailed(f"{path}: event {k} ctd {h['ctd']} outside [0, 1]")
            if not np.isclose(h["time"], tau, rtol=1e-12, atol=0.0):
                raise CheckFailed(f"{path}: event {k} horizon {h['time']} != {tau}")
            if h["pairs"] != pairs:
                raise CheckFailed(f"{path}: event {k} q={h['quantile']} pairs {h['pairs']} != {pairs}")
            values.append(h["ctd"])
    return values


def check_curves(path, n, times, n_events):
    """n x T rows in record-then-time order, values in [0, 1] that never
    rise with time for any record and event."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    expected = ["record", "time"] + [f"survival_event_{k + 1}" for k in range(n_events)]
    if header != expected:
        raise CheckFailed(f"{path}: header {header} != {expected}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    T = len(times)
    if table.shape != (n * T, 2 + n_events):
        raise CheckFailed(f"{path}: shape {table.shape} != {(n * T, 2 + n_events)}")
    if not np.array_equal(table[:, 0], np.repeat(np.arange(n), T)):
        raise CheckFailed(f"{path}: record column out of order")
    if not np.array_equal(table[:, 1], np.tile(np.asarray(times), n)):
        raise CheckFailed(f"{path}: time column differs from the query times")
    surv = table[:, 2:]
    if not (np.all(surv >= 0.0) and np.all(surv <= 1.0)):
        raise CheckFailed(f"{path}: survival outside [0, 1]")
    rises = np.diff(surv.reshape(n, T, n_events), axis=1)
    if np.any(rises > MONOTONE_TOLERANCE):
        raise CheckFailed(f"{path}: survival rises with time (by up to {rises.max()})")
