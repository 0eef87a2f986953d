"""Trainer orchestration: determinism, early stopping, reduction modes."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from survformer import autodiff as ad
from survformer import data as D
from survformer import losses as L
from survformer import training as T
from survformer.model import INFER_CHUNK, SurvivalTransformer


def tiny_dataset(n=80, n_events=2, censoring=0.2, seed=0):
    spec = D.SyntheticSpec(
        n=n, dim=3, n_events=n_events,
        risk_coefs=np.tile([[0.8, -0.5, 0.3]], (n_events, 1)) * np.linspace(1, -1, n_events)[:, None],
        assign_coefs=np.zeros((n_events, 3)),
        censoring_rate=censoring, seed=seed,
    )
    records, _ = D.synthesize(spec)
    train, val, test = (records.take(idx) for idx in D.split(range(spec.n), (0.6, 0.2, 0.2), seed=seed))
    schema = D.synthetic_schema(3)
    return train, val, test, schema


def tiny_config(**overrides):
    base = dict(
        learning_rate=1e-3, weight_decay=0.0, batch_size=16, max_epochs=3,
        patience=5, embed_dim=8, heads=2, layers=1, hidden_size=8,
        time_bins=4, seed=1,
    )
    base.update(overrides)
    return T.TrainConfig.from_dict(base)


def build_grid(train, config):
    return D.build_time_grid(train.t, config.model.time_bins, config.grid_scheme)


class TestTrain:
    def test_zero_learning_rate_keeps_initial_parameters(self):
        train, val, _, schema = tiny_dataset()
        config = tiny_config(learning_rate=0.0, weight_decay=0.0, max_epochs=1)
        grid = build_grid(train, config)
        n_events = int(train.e.max())
        reference = SurvivalTransformer(
            dataclasses.replace(config.model, time_bins=grid.m, n_events=n_events),
            schema, grid, seed=config.seed,
        )
        model, _, _ = T.train(config, train, val, schema, grid)
        for name in model.params:
            np.testing.assert_array_equal(model.params[name].data, reference.params[name].data)

    def test_same_seed_reproduces_parameters_exactly(self):
        train, val, _, schema = tiny_dataset()
        config = tiny_config(max_epochs=3)
        grid = build_grid(train, config)
        a, _, _ = T.train(config, train, val, schema, grid)
        b, _, _ = T.train(config, train, val, schema, grid)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_single_event_zero_gammas_reduce_to_hazard_term(self):
        train, val, _, schema = tiny_dataset(n_events=1)
        config = tiny_config(gamma_initial=(0.0, 0.0), max_epochs=2)
        grid = build_grid(train, config)
        _, history, pm = T.train(config, train, val, schema, grid)
        assert pm is None
        for epoch in history.epochs:
            assert epoch.train.total == pytest.approx(epoch.train.survival, abs=1e-12)

    def test_breakdown_identity_every_epoch(self):
        train, val, _, schema = tiny_dataset()
        config = tiny_config(max_epochs=4)
        grid = build_grid(train, config)
        _, history, _ = T.train(config, train, val, schema, grid)
        for e in history.epochs:
            bd = e.train
            assert bd.total == pytest.approx(
                bd.survival + bd.gamma1 * bd.mp + bd.gamma2 * bd.ls, abs=1e-10
            )

    def test_best_epoch_snapshot_is_restored(self):
        train, val, _, schema = tiny_dataset(n=120, seed=3)
        config = tiny_config(max_epochs=6, seed=3)
        grid = build_grid(train, config)
        model, history, pm = T.train(config, train, val, schema, grid)
        best = history.epochs[history.best_epoch]
        # recompute the validation loss at the restored parameters
        vcat, vnum, vt, ve = val.cat, val.num, val.t, val.e
        val_pi = np.ones((len(ve), 1))
        if pm is not None:
            from survformer import propensity as P

            val_pi = pm.predict(P.design_matrix(schema, vcat, vnum))
        total, _ = T._batch_loss(
            model, vcat, vnum, vt, ve, L.survival_targets(grid, vt, ve, val_pi), config.schedule(),
            history.best_epoch,
        )
        assert float(total.data) == pytest.approx(best.validation_loss, rel=1e-12)

    def test_patience_stops_training_and_restores_the_best_epoch(self, monkeypatch):
        train, val, _, schema = tiny_dataset(n=120, seed=3)
        config = tiny_config(max_epochs=10, patience=3, seed=3)
        scripted = [3.0, 2.0, 2.5, 2.6, 2.7, 1.0]  # rises for ``patience`` epochs after epoch 1
        snapshots = []

        def validation_loss(model, records, targets, schedule, epoch):
            snapshots.append(model.data.copy())  # the parameters after ``epoch``
            return scripted[epoch], None

        monkeypatch.setattr(T, "_validation_loss", validation_loss)
        model, history, _ = T.train(config, train, val, schema, build_grid(train, config))
        assert [e.epoch for e in history.epochs] == [0, 1, 2, 3, 4]
        assert [e.validation_loss for e in history.epochs] == scripted[:5]
        assert history.best_epoch == 1
        np.testing.assert_array_equal(model.data, snapshots[1])
        assert not np.array_equal(model.data, snapshots[-1])

    def test_best_epoch_validation_loss_is_minimal(self):
        train, val, _, schema = tiny_dataset(n=120, seed=5)
        config = tiny_config(max_epochs=6, seed=5)
        grid = build_grid(train, config)
        _, history, _ = T.train(config, train, val, schema, grid)
        losses = [e.validation_loss for e in history.epochs]
        assert history.epochs[history.best_epoch].validation_loss == min(losses)

    def test_validation_loss_improves_on_informative_data(self):
        train, val, _, schema = tiny_dataset(n=400, seed=11)
        config = tiny_config(max_epochs=12, batch_size=32, seed=11)
        grid = build_grid(train, config)
        _, history, _ = T.train(config, train, val, schema, grid)
        assert history.epochs[-1].validation_loss < history.epochs[0].validation_loss

    def test_divergence_aborts_with_location(self):
        train, val, _, schema = tiny_dataset(n=60, seed=2)
        config = tiny_config(learning_rate=1e12, max_epochs=4, seed=2)
        grid = build_grid(train, config)
        with pytest.raises(T.TrainingDiverged, match="epoch"):
            T.train(config, train, val, schema, grid)

    def test_divergence_names_the_loss_that_rejected_its_input(self):
        train, val, _, schema = tiny_dataset(n=60, seed=2)
        config = tiny_config(learning_rate=1e12, max_epochs=4, seed=2)
        grid = build_grid(train, config)
        with pytest.raises(T.TrainingDiverged, match="batch 1: survival loss: log requires strictly positive"):
            T.train(config, train, val, schema, grid)

    @staticmethod
    def default_batch(categorical, seed=0):
        """A default two-event model with four numerical and ``categorical``
        categorical fields, and its annealed loss on one random batch."""
        train, _, _, _ = tiny_dataset(n=120)
        config = T.TrainConfig()
        grid = build_grid(train, config)
        rng = np.random.default_rng(seed)
        B = config.batch_size
        cats = [D.CategoricalField(f"c{i}", {"a": 0, "b": 1}, "a") for i in range(categorical)]
        schema = D.CovariateSchema(cats, D.synthetic_schema(4).numerical)
        model = SurvivalTransformer(
            dataclasses.replace(config.model, time_bins=grid.m, n_events=2), schema, grid
        )
        cat, num = rng.integers(0, 3, (B, categorical)), rng.standard_normal((B, 4))
        t, e = rng.uniform(0.0, 2.0, B), rng.integers(0, 3, B)
        targets = L.survival_targets(grid, t, e, rng.uniform(0.2, 0.8, (B, 2)))
        loss, _ = T._batch_loss(model, cat, num, t, e, targets, config.schedule(), 0)
        return model, loss

    def test_default_two_event_batch_is_exactly_1_tape_node(self):
        # exactly 1 with or without categorical fields: the annealed loss,
        # whose VJP runs the network's, so no block, activation or
        # parameter (36 weight and bias tensors, one more per categorical
        # table) is a node
        for categorical in (0, 2):
            model, loss = self.default_batch(categorical)
            tape = ad.GradientTape(loss).nodes
            assert len(model.params) == 36 + categorical
            assert tape == [loss] and loss._parents == ()
            assert loss._backward.__qualname__ == "_batch_loss.<locals>.<lambda>"

    @pytest.mark.parametrize("categorical", [0, 2])
    def test_one_backward_rewrites_the_whole_gradient_buffer(self, categorical):
        model, loss = self.default_batch(categorical)
        model.grad[:] = np.nan
        ad.backward(loss)
        assert np.isfinite(model.grad).all()
        for p in model.params.values():
            assert np.shares_memory(p.grad, model.grad) and np.shares_memory(p.data, model.data)

    def test_nonfinite_loss_is_reported_by_the_loss_check(self):
        # a follow-up time of 1e200 squares past the float range in the
        # follow-up-time loss, while every network output stays finite;
        # record 0 falls in the first batch of the seed-1 shuffle
        train, val, _, schema = tiny_dataset()
        train = dataclasses.replace(train, t=np.where(np.arange(len(train)) == 0, 1e200, train.t))
        config = tiny_config()
        grid = build_grid(train, config)
        with pytest.raises(T.TrainingDiverged, match="nonfinite loss at epoch 0, batch 0"):
            T.train(config, train, val, schema, grid)

    @pytest.mark.parametrize("fold, message", [
        ("train", "nonfinite loss at epoch 0, batch 0: ls loss is inf"),
        ("validation", "nonfinite validation loss at epoch 0: ls loss is inf"),
    ])
    def test_nonfinite_loss_names_its_part(self, fold, message):
        # a follow-up time of 1e200 on the fold's first record, as above
        train, val, _, schema = tiny_dataset()
        config = tiny_config()
        grid = build_grid(train, config)
        folds = {"train": train, "validation": val}
        records = folds[fold]
        folds[fold] = dataclasses.replace(records, t=np.where(np.arange(len(records)) == 0, 1e200, records.t))
        with pytest.raises(T.TrainingDiverged, match=message):
            T.train(config, folds["train"], folds["validation"], schema, grid)

    @pytest.mark.parametrize("floor", [1.0, 0.05])
    def test_propensity_floor_one_gives_unit_ips_weights(self, monkeypatch, floor):
        made, targets = [], L.survival_targets
        monkeypatch.setattr(L, "survival_targets", lambda *args: made.append(targets(*args)) or made[-1])
        train, val, _, schema = tiny_dataset()
        config = tiny_config(max_epochs=1, propensity_floor=floor)
        T.train(config, train, val, schema, build_grid(train, config))
        assert len(made) == 2 and all(t.ind.any() for t in made)  # the two folds, each with events
        # a floor of 1 clips every propensity to 1; the default floor leaves them fitted
        assert all(np.all(t.weight == 1.0) for t in made) == (floor == 1.0)

    def test_empty_sets_rejected(self):
        train, val, _, schema = tiny_dataset()
        config = tiny_config()
        grid = build_grid(train, config)
        with pytest.raises(ValueError, match="nonempty"):
            T.train(config, train, val.take(np.arange(0)), schema, grid)

    def test_validation_label_outside_training_range_rejected(self):
        train, val, _, schema = tiny_dataset(n_events=1)
        bad_val = dataclasses.replace(val, e=np.full(len(val), 2))
        config = tiny_config()
        grid = build_grid(train, config)
        with pytest.raises(ValueError, match="unseen"):
            T.train(config, train, bad_val, schema, grid)


def synth_fold(n, seed):
    """``n`` default synthetic records: four numerical fields, two events."""
    return D.synthesize(D.default_synthetic_spec(n, dim=4, n_events=2, censoring_rate=0.3, seed=seed))[0]


class TestValidationLoss:
    """The validation loss comes from ``INFER_CHUNK``-record forwards."""

    @pytest.mark.parametrize("n", [1, INFER_CHUNK, INFER_CHUNK + 1, 3 * INFER_CHUNK + 5])
    def test_chunked_loss_matches_one_whole_fold_batch(self, n):
        records = synth_fold(n, seed=n)
        config = T.TrainConfig()
        grid = D.build_time_grid(synth_fold(200, seed=0).t, 6, "quantile")
        model = SurvivalTransformer(dataclasses.replace(config.model, time_bins=grid.m, n_events=2),
                                    D.synthetic_schema(4), grid, seed=3)
        pi = np.random.default_rng(n).uniform(0.05, 1.0, (n, 2))
        for epoch in (0, 7):
            targets = L.survival_targets(grid, records.t, records.e, pi)
            total, bd = T._validation_loss(model, records, targets, config.schedule(), epoch)
            want, want_bd = T._batch_loss(model, records.cat, records.num, records.t, records.e, targets,
                                          config.schedule(), epoch)
            assert float(total) == pytest.approx(float(want.data), rel=1e-12, abs=0)
            for part in ("total", "survival", "mp", "ls"):
                assert getattr(bd, part) == pytest.approx(getattr(want_bd, part), rel=1e-12, abs=0)

    def test_validation_and_inference_build_no_tensor(self, monkeypatch):
        records = synth_fold(INFER_CHUNK + 1, seed=1)
        config = T.TrainConfig()
        grid = D.build_time_grid(records.t, 6, "quantile")
        model = SurvivalTransformer(dataclasses.replace(config.model, time_bins=grid.m, n_events=2),
                                    D.synthetic_schema(4), grid, seed=3)
        targets = L.survival_targets(grid, records.t, records.e, np.ones((len(records), 2)))
        built, init = [], ad.Tensor.__init__
        monkeypatch.setattr(ad.Tensor, "__init__", lambda self, data: built.append(1) or init(self, data))
        T._validation_loss(model, records, targets, config.schedule(), 0)
        model.predict_outputs(records.cat, records.num)
        idx = np.arange(8)
        T._batch_loss(model, records.cat[idx], records.num[idx], records.t[idx], records.e[idx], targets[idx],
                      config.schedule(), 0)
        assert len(built) == 1  # the training batch's loss node, the only Tensor of the three

    def test_train_peak_memory_does_not_grow_with_the_validation_fold(self):
        train = synth_fold(128, seed=0)
        schema = D.synthetic_schema(4)
        config = T.TrainConfig.from_dict(dict(batch_size=64, max_epochs=1, time_bins=5))
        grid = D.build_time_grid(train.t, 5, "quantile")
        peaks = []
        for n in (INFER_CHUNK, 8 * INFER_CHUNK):
            val = synth_fold(n, seed=1)
            tracemalloc.start()
            try:
                T.train(config, train, val, schema, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # one whole-fold forward would grow the peak about sixfold
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestPredict:
    def fitted(self):
        train, val, test, schema = tiny_dataset(seed=4)
        config = tiny_config(max_epochs=2, seed=4)
        grid = build_grid(train, config)
        model, _, _ = T.train(config, train, val, schema, grid)
        return model, test

    def test_time_zero_gives_certain_survival(self):
        model, test = self.fitted()
        curves = T.predict(model, test.take(np.arange(5)), np.array([0.0]))
        np.testing.assert_array_equal(curves[:, :, 0], 1.0)

    def test_curves_nonincreasing_over_sorted_times(self):
        model, test = self.fitted()
        times = np.linspace(0.0, float(model.grid.cuts[-1]), 9)
        curves = T.predict(model, test.take(np.arange(6)), times)
        assert np.all(np.diff(curves, axis=2) <= 1e-15)

    def test_output_shape_covers_records_events_times(self):
        model, test = self.fitted()
        curves = T.predict(model, test.take(np.arange(7)), np.array([0.0, 1.0, 2.0]))
        assert curves.shape == (7, model.config.n_events, 3)


class TestEvaluate:
    def test_single_event_report_has_one_block(self):
        train, val, test, schema = tiny_dataset(n_events=1, seed=6)
        config = tiny_config(max_epochs=2, seed=6)
        grid = build_grid(train, config)
        model, _, _ = T.train(config, train, val, schema, grid)
        report = T.evaluate(model, test, T.fit_censoring(train))
        assert [b["event"] for b in report["events"]] == [1]

    def test_two_event_report_has_ordered_blocks(self):
        train, val, test, schema = tiny_dataset(n=200, seed=8)
        config = tiny_config(max_epochs=2, seed=8)
        grid = build_grid(train, config)
        model, _, _ = T.train(config, train, val, schema, grid)
        report = T.evaluate(model, test, T.fit_censoring(train))
        assert [b["event"] for b in report["events"]] == [1, 2]
        for block in report["events"]:
            assert [h["quantile"] for h in block["horizons"]] == [0.25, 0.5, 0.75]
            for h in block["horizons"]:
                assert 0.0 <= h["ctd"] <= 1.0 and h["pairs"] > 0


class TestTrainConfig:
    def test_minimal_json_config_is_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        config = T.TrainConfig.from_json(path)
        assert config.batch_size == 64 and config.model.time_bins == 10

    def test_partial_json_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"max_epochs": 7, "embed_dim": 8, "heads": 1}))
        config = T.TrainConfig.from_json(path)
        assert config.max_epochs == 7 and config.model.embed_dim == 8
        assert config.learning_rate == 1e-3

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rat": 0.1}))
        with pytest.raises(ValueError, match="unknown config fields"):
            T.TrainConfig.from_json(path)

    @pytest.mark.parametrize("heads", [0, -2])
    def test_nonpositive_heads_rejected_before_division(self, heads):
        with pytest.raises(ValueError, match="heads must be positive"):
            T.TrainConfig.from_dict({"heads": heads})

    def test_heads_must_divide_embed_dim(self):
        with pytest.raises(ValueError, match="divide"):
            T.TrainConfig.from_dict({"embed_dim": 10, "heads": 4})

    def test_anneal_schedule_ends_at_zero_by_default(self):
        config = T.TrainConfig(max_epochs=20)
        sched = config.schedule()
        assert sched.gammas(0) == (1.0, 1.0)
        assert sched.gammas(19) == (0.0, 0.0)
