"""Embeddings, attention, encoder stack, heads, and checkpointing."""

import json
import math

import numpy as np
import pytest

from survformer import autodiff as ad
from survformer import losses as L
from survformer.data import (
    CategoricalField,
    CovariateSchema,
    NumericalField,
    SurvivalRecord,
    TimeGrid,
)
from survformer.model import (
    ModelConfig,
    SurvivalTransformer,
    attention_payload,
    load_checkpoint,
    save_checkpoint,
)

from oracles import assert_grads_match, fd_gradients, naive_attention, naive_encode, selu_ref


def small_schema():
    return CovariateSchema(
        [CategoricalField("treat", {"no": 0, "yes": 1}, "no"),
         CategoricalField("stage", {"i": 0, "ii": 1, "iii": 2}, "i")],
        [NumericalField("age"), NumericalField("marker")],
    )


def small_grid():
    return TimeGrid(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


def make_model(seed=0, **overrides):
    cfg = dict(embed_dim=8, heads=2, layers=2, ffn_depth=2, hidden_size=16,
               head_layers=2, time_bins=5, n_events=2)
    cfg.update(overrides)
    return SurvivalTransformer(ModelConfig(**cfg), small_schema(), small_grid(), seed=seed)


def record(cat=(1, 2), num=(0.3, -0.7), duration=1.5, event=1):
    return SurvivalRecord(np.array(cat, dtype=np.intp), np.array(num, dtype=np.float64),
                          duration, event)


class TestEmbed:
    def test_zero_numerical_value_gives_zero_vector(self):
        model = make_model()
        emb = model.embed(record(num=(0.0, 1.0)))
        np.testing.assert_array_equal(emb[2], np.zeros(8))  # field order: cat, cat, num, num

    def test_linearity_in_numerical_value(self):
        model = make_model()
        one = model.embed(record(num=(1.0, 0.0)))
        two = model.embed(record(num=(2.0, 0.0)))
        np.testing.assert_allclose(two[2], 2.0 * one[2], rtol=1e-12)

    def test_categorical_lookup_is_independent_of_other_fields(self):
        model = make_model()
        a = model.embed(record(cat=(1, 0), num=(5.0, 5.0)))
        b = model.embed(record(cat=(1, 2), num=(-3.0, 0.1)))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[0], model.params["embed.cat0"].data[1])

    def test_schema_mismatch_rejected(self):
        model = make_model()
        bad = SurvivalRecord(np.array([1], dtype=np.intp), np.array([0.1, 0.2]), 1.0, 1)
        with pytest.raises(ValueError, match="covariates"):
            model.embed(bad)

    def test_unknown_index_within_range_accepted(self):
        model = make_model()
        emb = model.embed(record(cat=(2, 3)))  # reserved rows
        assert emb.shape == (4, 8)


class TestAttention:
    def test_zero_query_key_gives_uniform_weights_and_mean_output(self):
        model = make_model(heads=1, layers=1)
        model.params["enc0.h0.wq"].data[:] = 0.0
        model.params["enc0.h0.wk"].data[:] = 0.0
        rec = record()
        t0 = model.embed(rec)
        mixed, maps = model.attention_layer(0, ad.Tensor(t0[None, :, :]))
        np.testing.assert_allclose(maps[0][0], 0.25, atol=1e-15)
        expected = np.mean(t0 @ model.params["enc0.h0.wv"].data, axis=0)
        for j in range(4):
            np.testing.assert_allclose(mixed.data[0, j], expected, rtol=1e-12)

    def test_single_field_attends_to_itself(self):
        schema = CovariateSchema([], [NumericalField("only")])
        cfg = ModelConfig(embed_dim=8, heads=1, layers=1, ffn_depth=2,
                          hidden_size=8, head_layers=1, time_bins=5, n_events=1)
        model = SurvivalTransformer(cfg, schema, small_grid(), seed=3)
        rec = SurvivalRecord(np.empty(0, dtype=np.intp), np.array([1.3]), 1.0, 1)
        t0 = model.embed(rec)
        mixed, maps = model.attention_layer(0, ad.Tensor(t0[None, :, :]))
        np.testing.assert_allclose(maps[0][0], [[1.0]], atol=1e-15)
        np.testing.assert_allclose(
            mixed.data[0, 0], t0[0] @ model.params["enc0.h0.wv"].data, rtol=1e-12
        )

    def test_matches_naive_loop_on_random_instance(self):
        model = make_model(heads=1, layers=1, seed=5)
        rec = record(cat=(0, 1), num=(0.9, -1.2))
        t0 = model.embed(rec)
        mixed, maps = model.attention_layer(0, ad.Tensor(t0[None, :, :]))
        want_out, want_alpha = naive_attention(
            list(t0),
            model.params["enc0.h0.wq"].data,
            model.params["enc0.h0.wk"].data,
            model.params["enc0.h0.wv"].data,
        )
        np.testing.assert_allclose(maps[0][0], want_alpha, atol=1e-12)
        np.testing.assert_allclose(mixed.data[0], np.stack(want_out), atol=1e-12)

    def test_rows_sum_to_one_on_random_records(self):
        model = make_model(seed=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            rec = record(cat=(rng.integers(0, 3), rng.integers(0, 4)),
                         num=tuple(rng.standard_normal(2)))
            for m in model.export_attention(rec):
                np.testing.assert_allclose(m.weights.sum(axis=1), 1.0, atol=1e-6)
                assert np.all(m.weights >= 0) and np.all(m.weights <= 1)


class TestEncode:
    def test_no_layers_returns_raw_embeddings(self):
        model = make_model(layers=0)
        rec = record()
        flat, maps = model.encode(rec)
        np.testing.assert_array_equal(flat, model.embed(rec).reshape(-1))
        assert maps == []

    def test_zero_weights_finite_with_contract_shape(self):
        model = make_model()
        for name, p in model.params.items():
            if name.startswith("enc"):
                p.data[:] = 0.0
        flat, _ = model.encode(record())
        assert flat.shape == (4 * 8,)
        assert np.all(np.isfinite(flat))

    def test_deterministic(self):
        model = make_model(seed=9)
        a, _ = model.encode(record())
        b, _ = model.encode(record())
        assert np.array_equal(a, b)

    def test_matches_naive_loop_oracle(self):
        cfg = ModelConfig(embed_dim=8, heads=1, layers=1, ffn_depth=2,
                          hidden_size=16, head_layers=1, time_bins=5, n_events=1)
        rng = np.random.default_rng(21)
        for trial in range(5):
            model = SurvivalTransformer(cfg, small_schema(), small_grid(), seed=trial)
            rec = record(cat=(rng.integers(0, 3), rng.integers(0, 4)),
                         num=tuple(rng.standard_normal(2)))
            got, _ = model.encode(rec)
            np.testing.assert_allclose(got, naive_encode(model, rec), atol=1e-10)

    def test_gradients_reach_every_layer_weight(self):
        model = make_model(seed=4, layers=2)
        rec = record()
        cat = rec.categorical[None, :]
        num = rec.numerical[None, :]

        def build():
            fp = model.forward_batch(cat, num)
            return ad.tsum(fp.encoded)

        ad.backward(build())
        enc_params = [p for n, p in model.params.items() if n.startswith("enc")]
        analytic = [p.grad for p in enc_params]
        assert all(g is not None for g in analytic)
        fd = fd_gradients(lambda: float(build().data), enc_params)
        assert_grads_match(analytic, fd)


def random_batch(rng, size):
    """Covariates for ``size`` records of ``small_schema``, unseen categories
    included, numericals well outside the standardized range."""
    cat = np.stack([rng.integers(0, 3, size=size), rng.integers(0, 4, size=size)], axis=1)
    return cat, rng.normal(0.0, 3.0, size=(size, 2))


class TestSharedRepresentation:
    def test_zero_weight_gives_zero_vector(self):
        model = make_model()
        model.params["sr.w"].data[:] = 0.0
        rec = record()
        fp = model.forward_batch(rec.categorical[None, :], rec.numerical[None, :])
        np.testing.assert_array_equal(fp.shared.data, np.zeros((1, 16)))

    def test_width_is_hidden_size(self):
        model = make_model(hidden_size=16)
        fp = model.forward_batch(*random_batch(np.random.default_rng(0), 3))
        assert fp.shared.data.shape == (3, 16)

    def test_argument_order_matters_for_random_weights(self):
        model = make_model(seed=13)
        fp = model.forward_batch(*random_batch(np.random.default_rng(1), 4))
        encoded = fp.encoded.data.reshape(4, -1)
        raw = fp.raw.data.reshape(4, -1)
        w = model.params["sr.w"].data
        want = selu_ref(np.concatenate([encoded, raw], axis=1) @ w)
        np.testing.assert_allclose(fp.shared.data, want, rtol=1e-12, atol=1e-15)
        swapped = selu_ref(np.concatenate([raw, encoded], axis=1) @ w)
        assert not np.allclose(fp.shared.data, swapped)


class TestHeads:
    def zeroed_model(self):
        model = make_model()
        for name, p in model.params.items():
            if name.startswith(("cs", "mp", "ls")):
                p.data[:] = 0.0
        return model

    def test_zero_head_hazards_are_log_two(self):
        model = self.zeroed_model()
        fp = model.forward_batch(*random_batch(np.random.default_rng(0), 6))
        for h in fp.hazards:
            np.testing.assert_allclose(h.data, math.log(2.0), rtol=1e-12)

    def test_hazard_length_is_bin_count(self):
        model = make_model()
        fp = model.forward_batch(*random_batch(np.random.default_rng(1), 3))
        assert fp.hazards[1].data.shape == (3, 5)

    def test_hazards_positive_on_random_inputs(self):
        model = make_model(seed=8)
        fp = model.forward_batch(*random_batch(np.random.default_rng(2), 100))
        for h in fp.hazards:
            assert np.all(h.data > 0)

    def test_one_hazard_head_per_event(self):
        for n_events in (1, 3):
            model = make_model(n_events=n_events)
            fp = model.forward_batch(*random_batch(np.random.default_rng(5), 2))
            assert len(fp.hazards) == n_events

    def test_zero_weights_give_neutral_task_outputs(self):
        model = self.zeroed_model()
        fp = model.forward_batch(*random_batch(np.random.default_rng(3), 6))
        np.testing.assert_array_equal(fp.event_prob.data, 0.5)
        np.testing.assert_array_equal(fp.time_pred.data, 0.0)

    def test_event_probability_strictly_inside_unit_interval(self):
        model = make_model(seed=6)
        fp = model.forward_batch(*random_batch(np.random.default_rng(4), 50))
        assert np.all((fp.event_prob.data > 0.0) & (fp.event_prob.data < 1.0))


class TestExportAttention:
    def test_uniform_maps_under_zero_query_key(self):
        model = make_model(heads=1, layers=1)
        model.params["enc0.h0.wq"].data[:] = 0.0
        model.params["enc0.h0.wk"].data[:] = 0.0
        maps = model.export_attention(record())
        assert len(maps) == 1
        np.testing.assert_allclose(maps[0].weights, 0.25, atol=1e-15)

    def test_labels_follow_schema_field_order(self):
        model = make_model()
        maps = model.export_attention(record())
        assert maps[0].labels == ["treat", "stage", "age", "marker"]
        assert [(m.layer, m.head) for m in maps] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_payload_is_json_ready(self):
        model = make_model()
        payload = attention_payload(model.export_attention(record()))
        text = json.dumps(payload)
        assert "treat" in text


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = make_model(seed=31)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, extra={"note": 1})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        recs = [record(), record(cat=(0, 0), num=(1.0, 1.0), duration=3.0, event=2)]
        np.testing.assert_array_equal(
            model.predict_hazards(recs), loaded.predict_hazards(recs)
        )
        assert loaded.config == model.config
        assert loaded.grid.to_list() == model.grid.to_list()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    def edited_checkpoint(self, tmp_path, edit):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, make_model())
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("section", ["config", "schema", "grid", "params"])
    def test_missing_section_named(self, tmp_path, section):
        path = self.edited_checkpoint(tmp_path, lambda p: p.pop(section))
        with pytest.raises(ValueError, match=f"lacks {section}"):
            load_checkpoint(path)

    def test_missing_parameter_named(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda p: p["params"].pop("cs1.b0"))
        with pytest.raises(ValueError, match="lacks parameters cs1.b0"):
            load_checkpoint(path)

    def test_malformed_config_rejected(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda p: p["config"].update(no_such_field=1))
        with pytest.raises(ValueError, match="malformed config"):
            load_checkpoint(path)


class TestConfigValidation:
    def test_heads_must_divide_embed_dim(self):
        with pytest.raises(ValueError, match="divide"):
            ModelConfig(embed_dim=8, heads=3)

    def test_grid_and_config_bin_counts_must_agree(self):
        cfg = ModelConfig(embed_dim=8, heads=2, time_bins=7)
        with pytest.raises(ValueError, match="time_bins"):
            SurvivalTransformer(cfg, small_schema(), small_grid(), seed=0)


def test_full_model_gradients_match_finite_differences_small():
    """Loss through every head back to the embedding tables, tiny instance."""
    cfg = ModelConfig(embed_dim=4, heads=2, layers=1, ffn_depth=2, hidden_size=6,
                      head_layers=2, time_bins=3, n_events=2)
    schema = small_schema()
    grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
    model = SurvivalTransformer(cfg, schema, grid, seed=17)
    rng = np.random.default_rng(2)
    cat = np.stack([rng.integers(0, 3, size=2), rng.integers(0, 4, size=2)]).T % np.array([3, 4])
    num = rng.standard_normal((2, 2))
    t = np.array([0.7, 2.5])
    e = np.array([1, 2])
    pi = np.full((2, 2), 0.5)
    sched = L.AnnealSchedule(horizon=5)

    def build():
        fp = model.forward_batch(cat, num)
        surv = L.competing_survival_loss(fp.hazards, grid, t, e, propensities=pi)
        mp = L.mp_loss_tensor(fp.event_prob, (e > 0).astype(float))
        ls = L.ls_loss_tensor(fp.time_pred, t)
        total, _ = L.total_loss_tensor(surv, mp, ls, sched, 0)
        return total

    ad.backward(build())
    params = model.parameters()
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    fd = fd_gradients(lambda: float(build().data), params)
    assert_grads_match(analytic, fd)
