"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The external-data check (criterion 7) needs a user-supplied CSV in the
breast-cancer benchmark format; point SURVFORMER_METABRIC_CSV at it. Without
the file that criterion is skipped, not failed.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from survformer import data as D
from survformer import losses as L
from survformer import training as T
from survformer.data import (
    CategoricalField,
    CovariateSchema,
    NumericalField,
    TimeGrid,
)
from survformer.evaluation import km_censoring, survival_matrix
from survformer.model import ModelConfig, SurvivalTransformer

from oracles import ctd_oracle, event_loss_matrix, fd_gradients, naive_competing_loss, naive_encode


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_gradient_correctness():
    """Analytic gradients through the whole network match finite
    differences (``fd_gradients``) at 1e-4 relative error for every
    parameter element, with a 1e-8 absolute term."""
    start = time.time()
    schema = CovariateSchema(
        [CategoricalField("c1", {"a": 0, "b": 1, "c": 2}, "a"),
         CategoricalField("c2", {"x": 0, "y": 1}, "x")],
        [NumericalField("n1"), NumericalField("n2")],
    )
    grid = TimeGrid(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    cfg = ModelConfig(embed_dim=8, heads=2, layers=2, ffn_depth=2, hidden_size=16,
                      head_layers=2, time_bins=5, n_events=2)
    model = SurvivalTransformer(cfg, schema, grid, seed=1)
    rng = np.random.default_rng(0)
    cat = np.stack([rng.integers(0, 3, size=4), rng.integers(0, 2, size=4)]).T
    num = rng.standard_normal((4, 2))
    t = np.array([0.5, 1.5, 2.5, 4.9])
    e = np.array([1, 0, 2, 1])
    pi = rng.uniform(0.2, 0.8, size=(4, 2))

    def forward():
        # as a training batch: the annealed total, and its VJP, which hands
        # the head-output cotangents to the network's
        fp = model.forward_batch(cat, num)
        surv = L.competing_survival_loss(fp.hazards, L.survival_targets(grid, t, e, pi))
        mp = L.mp_loss_tensor(fp.event_prob, (e > 0).astype(float))
        ls = L.ls_loss_tensor(fp.time_pred, t)
        total, _, vjp = L.total_loss_tensor(surv, mp, ls, (1.0, 1.0))
        return float(total), lambda: fp.backward(*vjp(1.0))

    forward()[1]()
    numeric = fd_gradients(lambda: forward()[0], [p.data for p in model.params.values()])
    ratios = {}  # per parameter, its worst error over its tolerance; NaN counts as infinite
    for (name, p), fd in zip(model.params.items(), numeric):
        tol = 1e-4 * np.maximum(np.abs(p.grad), np.abs(fd)) + 1e-8
        ratios[name] = np.nan_to_num(np.abs(p.grad - fd) / tol, nan=np.inf).max()
    worst = max(ratios, key=ratios.get)
    elapsed = time.time() - start
    ok = ratios[worst] <= 1.0 and elapsed < 120.0
    report(1, "gradient correctness", ok, f"[{sum(fd.size for fd in numeric)} elements, worst error "
           f"{ratios[worst]:.3g} of the tolerance ({worst}), {elapsed:.1f}s]")


def test_criterion_2_ips_unbiasedness():
    start = time.time()
    spec = D.SyntheticSpec(
        n=200, dim=3, n_events=2,
        risk_coefs=np.array([[0.9, 0.0, 0.0], [-0.9, 0.0, 0.0]]),
        assign_coefs=np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]),
        censoring_rate=0.0, seed=13,
    )
    records, truth = D.synthesize(spec)
    x, t = records.num, records.t
    grid = D.build_time_grid(t, 5, "quantile")
    n, n_events, m = 200, 2, grid.m
    # fixed hazards, strongly covariate-dependent so the naive average is biased
    base = np.linspace(0.6, 1.4, m)
    hazards = np.empty((n, n_events, m))
    hazards[:, 0, :] = np.exp(0.9 * x[:, [0]]) * base
    hazards[:, 1, :] = np.exp(-0.9 * x[:, [0]]) * base
    losses = event_loss_matrix(hazards, t, grid.cuts)
    oracle_risk = losses.sum() / (n * n_events)
    assert truth.min() > 1e-3  # the true propensities, inverted unclipped, weigh below 1000

    # the IPS side is the training loss with its censored part weighted out:
    # ind * (ind / pi + 1 - ind) = ind / pi, the printed estimator's weight
    stacked = hazards.transpose(1, 0, 2)
    rng = np.random.default_rng(99)
    draws = 10_000
    ips_sum = 0.0
    naive_sum = 0.0
    for _ in range(draws):
        e = 1 + (rng.uniform(size=n) > truth[:, 0]).astype(int)
        tg = L.survival_targets(grid, t, e, truth)
        ips_sum += float(L.competing_survival_loss(stacked, dataclasses.replace(tg, weight=tg.ind * tg.weight))[0])
        naive_sum += naive_competing_loss(losses, e)
    ips_dev = abs(ips_sum / draws - oracle_risk) / oracle_risk
    naive_dev = abs(naive_sum / draws - oracle_risk) / oracle_risk
    elapsed = time.time() - start
    ok = ips_dev < 0.01 and naive_dev > 0.05 and elapsed < 60.0
    report(2, "debiased loss unbiasedness", ok,
           f"[ips dev {ips_dev:.2%}, naive dev {naive_dev:.2%}, {elapsed:.1f}s]")


def test_criterion_3_concordance_matches_exhaustive_oracle():
    from survformer.evaluation import UndefinedMetricError, ctd

    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(5, 101))
        train_t = rng.uniform(0.5, 10.0, size=n)
        train_e = rng.integers(0, 3, size=n)
        est = km_censoring(train_t, train_e)
        durations = rng.uniform(0.5, 10.0, size=n)
        events = rng.integers(0, 3, size=n)
        scores = rng.uniform(size=n)
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # force prediction ties
        tau = float(rng.uniform(2.0, 9.0))
        k = int(rng.integers(1, 3))
        want, want_pairs = ctd_oracle(scores, durations, events, tau, k, train_t, train_e)
        if want is None:
            with pytest.raises(UndefinedMetricError):
                ctd(scores, durations, events, tau, k, est)
            continue
        got, pairs = ctd(scores, durations, events, tau, k, est)
        assert pairs == want_pairs
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        checked += 1
    report(3, "concordance oracle equivalence", True, f"[{checked} nondegenerate instances]")


def test_criterion_4_encoder_matches_naive_loop():
    schema = CovariateSchema(
        [CategoricalField("c1", {"a": 0, "b": 1, "c": 2}, "a")],
        [NumericalField("n1"), NumericalField("n2")],
    )
    grid = TimeGrid(np.array([1.0, 2.0]))
    cfg = ModelConfig(embed_dim=8, heads=1, layers=1, ffn_depth=2, hidden_size=16,
                      head_layers=1, time_bins=2, n_events=1)
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        model = SurvivalTransformer(cfg, schema, grid, seed=trial)
        cat = np.array([rng.integers(0, 4)], dtype=np.intp)  # includes the unseen row
        num = rng.standard_normal(2)
        got = model.forward_batch(cat[None, :], num[None, :]).encoded.reshape(-1)
        worst = max(worst, float(np.abs(got - naive_encode(model, cat, num)).max()))
    ok = worst < 1e-10
    report(4, "encoder oracle equivalence", ok, f"[max deviation {worst:.2e}]")


def test_criterion_5_curve_and_attention_invariants():
    rng = np.random.default_rng(7)
    grid = TimeGrid(np.array([1.0, 2.5, 3.0, 4.7, 6.0]))
    times = np.linspace(0.0, 6.0, 13)
    for _ in range(1000):
        hazards = rng.uniform(0.0, 3.0, size=5)
        values = survival_matrix(hazards[None, :], grid, times)[0]
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 1e-15)
        assert np.all((values >= 0.0) & (values <= 1.0))

    schema = CovariateSchema(
        [CategoricalField("c1", {"a": 0, "b": 1, "c": 2}, "a")],
        [NumericalField("n1"), NumericalField("n2")],
    )
    cfg = ModelConfig(embed_dim=8, heads=2, layers=2, ffn_depth=2, hidden_size=16,
                      head_layers=2, time_bins=5, n_events=2)
    model = SurvivalTransformer(cfg, schema, TimeGrid(np.arange(1.0, 6.0)), seed=3)
    for _ in range(100):
        cat = np.array([rng.integers(0, 4)], dtype=np.intp)
        maps = model.export_attention(cat, rng.standard_normal(2))
        assert len(maps) == 4  # 2 layers x 2 heads
        for m in maps:
            np.testing.assert_allclose(np.sum(m["weights"], axis=1), 1.0, atol=1e-6)
    report(5, "survival and attention invariants", True,
           "[1000 hazard vectors, 100 records]")


def _informative_dataset():
    spec = D.SyntheticSpec(
        n=3000, dim=4, n_events=2,
        risk_coefs=np.array([[1.0, -0.8, 0.4, 0.0], [-0.9, 0.9, 0.0, 0.4]]),
        assign_coefs=np.array([[0.5, -0.3, 0.0, 0.0], [-0.5, 0.3, 0.0, 0.0]]),
        censoring_rate=0.25, seed=7,
    )
    records, _ = D.synthesize(spec)
    return [records.take(idx) for idx in D.split(range(spec.n), (0.6, 0.1, 0.3), seed=7)]


def _ctd_at_half(model, test_records, censoring):
    rep = T.evaluate(model, test_records, censoring, quantiles=(0.5,))
    return [block["horizons"][0]["ctd"] for block in rep["events"]]


def test_criterion_6_learning_signal():
    start = time.time()
    train_r, val_r, test_r = _informative_dataset()
    schema = D.synthetic_schema(4)
    config = T.TrainConfig(max_epochs=30, patience=5, seed=7)
    grid = D.build_time_grid(train_r.t, config.model.time_bins, config.grid_scheme)
    model, _, _ = T.train(config, train_r, val_r, schema, grid)
    trained = _ctd_at_half(model, test_r, T.fit_censoring(train_r))

    # control: labels permuted across training and validation records
    rng = np.random.default_rng(123)

    def permute(records):
        idx = rng.permutation(len(records))
        return dataclasses.replace(records, t=records.t[idx], e=records.e[idx])

    p_train, p_val = permute(train_r), permute(val_r)
    p_grid = D.build_time_grid(p_train.t, config.model.time_bins, config.grid_scheme)
    control_model, _, _ = T.train(config, p_train, p_val, schema, p_grid)
    control = _ctd_at_half(control_model, test_r, T.fit_censoring(p_train))

    elapsed = time.time() - start
    ok = (
        all(v >= 0.70 for v in trained)
        and all(abs(v - 0.5) <= 0.05 for v in control)
        and elapsed < 300.0
    )
    report(6, "learning signal", ok,
           f"[trained ctd(50%) {[round(v, 3) for v in trained]}, "
           f"control {[round(v, 3) for v in control]}, {elapsed:.0f}s]")


METABRIC_TARGETS = {0.25: 0.728, 0.5: 0.690, 0.75: 0.655}


def test_criterion_7_external_benchmark_check():
    """Best-effort check against published concordance on user-supplied data.

    Expects the standard benchmark export: columns x0..x8 (x4..x7 binary
    categorical), duration, event. Skipped when no file is provided.
    """
    path = os.environ.get("SURVFORMER_METABRIC_CSV", "data/metabric.csv")
    if not os.path.exists(path):
        print("ACCEPTANCE 7 (external benchmark): SKIP [no dataset file provided]")
        pytest.skip(f"external benchmark file not found at {path!r}")
    columns = D.ColumnSpec(
        numerical=["x0", "x1", "x2", "x3", "x8"],
        categorical=["x4", "x5", "x6", "x7"],
    )
    table = D.read_raw_csv(path, columns)
    config = T.TrainConfig.from_dict(dict(
        max_epochs=100, patience=10, seed=0,
        embed_dim=16, heads=2, layers=2, hidden_size=32,
        learning_rate=1e-3, weight_decay=1e-4,
    ))
    train_rows, val_rows, test_rows = (
        table.take(idx) for idx in D.split(range(len(table)), (0.6, 0.1, 0.3), config.seed)
    )
    schema = D.fit_schema(train_rows, columns)
    train_r = D.transform_rows(schema, train_rows, columns)
    val_r = D.transform_rows(schema, val_rows, columns)
    test_r = D.transform_rows(schema, test_rows, columns)
    assert schema.d_c == 4 and schema.d_n == 5
    grid = D.build_time_grid(train_r.t, config.model.time_bins, config.grid_scheme)
    model, _, _ = T.train(config, train_r, val_r, schema, grid)
    rep = T.evaluate(model, test_r, T.fit_censoring(train_r), quantiles=(0.25, 0.5, 0.75))
    got = {h["quantile"]: h["ctd"] for h in rep["events"][0]["horizons"]}
    deviations = {q: abs(got[q] - target) for q, target in METABRIC_TARGETS.items()}
    ok = all(dev <= 0.05 for dev in deviations.values())
    report(7, "external benchmark", ok,
           f"[ctd {dict((q, round(v, 3)) for q, v in got.items())} vs {METABRIC_TARGETS}]")
