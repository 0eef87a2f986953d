"""Embeddings, attention, encoder stack, heads, and checkpointing."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import autodiff as ad
from survformer import losses as L
from survformer.data import (
    CategoricalField,
    CovariateSchema,
    NumericalField,
    TimeGrid,
    synthetic_schema,
)
from survformer import model as M
from survformer.model import (
    INFER_CHUNK,
    ModelConfig,
    SurvivalTransformer,
    _attend,
    _attend_back,
    embed_fields,
    encoder_layer,
    load_checkpoint,
    mlp_head,
    save_checkpoint,
)

from oracles import (
    assert_grads_match,
    chained_network_grad,
    fd_gradients,
    naive_attention,
    naive_attention_vjp,
    naive_encode,
    naive_encoder_layer,
    naive_parameter_draw,
    selu_ref,
)


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


# config overrides and schemas that cover every block's presence and absence
LAYOUTS = [
    ({}, small_schema()),
    ({"layers": 0, "ffn_depth": 5}, small_schema()),
    ({"layers": 3, "heads": 4, "ffn_depth": 1, "head_layers": 3, "n_events": 3},
     CovariateSchema([], [NumericalField("only")])),
    ({"layers": 1}, CovariateSchema([CategoricalField("c", {"a": 0}, "a")], [])),
]
LAYOUT_IDS = ["default", "no-layers", "numerical-only", "categorical-only"]


def record(cat=(1, 2), num=(0.3, -0.7)):
    """One record's ``cat`` and ``num`` rows."""
    return np.array(cat, dtype=np.intp), np.array(num, dtype=np.float64)


def one_row(model, rec):
    """``forward_batch`` on one record's rows as a batch of one."""
    cat, num = rec
    return model.forward_batch(cat[None, :], num[None, :])


class TestEmbed:
    def test_zero_numerical_value_gives_zero_vector(self):
        model = make_model()
        emb = one_row(model, record(num=(0.0, 1.0))).raw
        np.testing.assert_array_equal(emb[2], np.zeros(8))  # field order: cat, cat, num, num

    def test_linearity_in_numerical_value(self):
        model = make_model()
        one = one_row(model, record(num=(1.0, 0.0))).raw
        two = one_row(model, record(num=(2.0, 0.0))).raw
        np.testing.assert_allclose(two[2], 2.0 * one[2], rtol=1e-12)

    def test_categorical_lookup_is_independent_of_other_fields(self):
        model = make_model()
        a = one_row(model, record(cat=(1, 0), num=(5.0, 5.0))).raw
        b = one_row(model, record(cat=(1, 2), num=(-3.0, 0.1))).raw
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[0], model.params["embed.cat0"].data[1])

    def test_schema_mismatch_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="covariates"):
            model.export_attention(np.array([1], dtype=np.intp), np.array([0.1, 0.2]))

    def test_unknown_index_within_range_accepted(self):
        model = make_model()
        emb = one_row(model, record(cat=(2, 3))).raw  # reserved rows
        assert emb.shape == (4, 8)


def layer_weights(model, layer=0):
    """Per-head (wq, wk, wv) parameter lists of one encoder layer."""
    heads = range(model.config.heads)
    return [[model.params[f"enc{layer}.h{h}.{w}"] for h in heads] for w in ("wq", "wk", "wv")]


def fuse_heads(wq, wk, wv):
    """The per-head weight Tensors as ``_attend``'s fused (d_e, 3·H·d_h) weight."""
    return np.concatenate([w.data for ws in (wq, wk, wv) for w in ws], axis=1)


def attention(x, D, wq, wk, wv):
    """``_attend`` on (B·D, d_e) rows ``x`` with per-head weight Tensors: the
    (B·D, H·d_h) output and the (B, H, D, D) weights."""
    out, saved = _attend(x, D, len(wq), fuse_heads(wq, wk, wv))
    return out, saved[-1]


def attend(model, rec, layer=0):
    """The layer's attention on one record's embeddings."""
    t0 = one_row(model, rec).raw
    return attention(t0, t0.shape[0], *layer_weights(model, layer))


def parameters(arrays):
    """Parameter Tensors for ``arrays``, views of one flat data buffer and
    one flat gradient buffer."""
    return ad.flat_parameters(arrays)[2]


def random_heads(rng, H, de=4, dh=2, scale=1.0):
    return [parameters([scale * rng.standard_normal((de, dh)) for _ in range(H)]) for _ in range(3)]


class TestAttention:
    def test_zero_query_key_gives_uniform_weights_and_mean_output(self):
        model = make_model(heads=1, layers=1)
        model.params["enc0.h0.wq"].data[:] = 0.0
        model.params["enc0.h0.wk"].data[:] = 0.0
        rec = record()
        mixed, alpha = attend(model, rec)
        np.testing.assert_allclose(alpha[0, 0], 0.25, atol=1e-15)
        expected = np.mean(one_row(model, rec).raw @ model.params["enc0.h0.wv"].data, axis=0)
        for j in range(4):
            np.testing.assert_allclose(mixed[j], expected, rtol=1e-12)

    def test_single_field_attends_to_itself(self):
        schema = CovariateSchema([], [NumericalField("only")])
        cfg = ModelConfig(embed_dim=8, heads=1, layers=1, ffn_depth=2,
                          hidden_size=8, head_layers=1, time_bins=5, n_events=1)
        model = SurvivalTransformer(cfg, schema, small_grid(), seed=3)
        rec = record(cat=(), num=(1.3,))
        mixed, alpha = attend(model, rec)
        np.testing.assert_allclose(alpha[0, 0], [[1.0]], atol=1e-15)
        np.testing.assert_allclose(
            mixed[0], one_row(model, rec).raw[0] @ model.params["enc0.h0.wv"].data, rtol=1e-12
        )

    def test_matches_naive_loop_on_random_instance(self):
        model = make_model(heads=2, layers=1, seed=5)
        rec = record(cat=(0, 1), num=(0.9, -1.2))
        mixed, alpha = attend(model, rec)
        t0 = list(one_row(model, rec).raw)
        outs = []
        for h, (wq, wk, wv) in enumerate(zip(*layer_weights(model))):
            want_out, want_alpha = naive_attention(t0, wq.data, wk.data, wv.data)
            np.testing.assert_allclose(alpha[0, h], want_alpha, atol=1e-12)
            outs.append(np.stack(want_out))
        np.testing.assert_allclose(mixed, np.concatenate(outs, axis=1), atol=1e-12)

    def test_rows_sum_to_one_on_random_records(self):
        model = make_model(seed=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            rec = record(cat=(rng.integers(0, 3), rng.integers(0, 4)),
                         num=tuple(rng.standard_normal(2)))
            for m in model.export_attention(*rec):
                weights = np.asarray(m["weights"])
                np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)
                assert np.all(weights >= 0) and np.all(weights <= 1)


class TestMultiHeadAttentionOp:
    """``_attend`` and ``_attend_back``: all heads' attention inside each
    encoder layer op."""

    @given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([1, 2, 4]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_head_naive_loops(self, B, D, H, seed):
        rng = np.random.default_rng(seed)
        de = 8
        x = rng.standard_normal((B * D, de))
        wq, wk, wv = random_heads(rng, H, de=de, dh=de // H)
        out, alpha = attention(x, D, wq, wk, wv)
        assert out.shape == (B * D, de) and alpha.shape == (B, H, D, D)
        for b in range(B):
            rows = list(x[b * D:(b + 1) * D])
            outs = []
            for h in range(H):
                want_out, want_alpha = naive_attention(rows, wq[h].data, wk[h].data, wv[h].data)
                np.testing.assert_allclose(alpha[b, h], want_alpha, rtol=1e-12, atol=1e-12)
                outs.append(np.stack(want_out))
            np.testing.assert_allclose(
                out[b * D:(b + 1) * D], np.concatenate(outs, axis=1), rtol=1e-12, atol=1e-12
            )

    @given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([1, 2, 4]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_backward_matches_per_record_naive_loops(self, B, D, H, seed):
        rng = np.random.default_rng(seed)
        de = 8
        x = rng.standard_normal((B * D, de))
        wq, wk, wv = random_heads(rng, H, de=de, dh=de // H)
        g = rng.standard_normal((B * D, de))
        d_w, dx = _attend_back(g, _attend(x, D, H, fuse_heads(wq, wk, wv))[1])
        assert d_w.shape == (de, 3 * de) and dx.shape == (B * D, de)
        want = np.zeros((3 * H, de, de // H))  # per-record weight gradients summed over records
        heads = [(q.data, k.data, v.data) for q, k, v in zip(wq, wk, wv)]
        for b in range(B):
            rows = slice(b * D, (b + 1) * D)
            d_heads, d_rows = naive_attention_vjp(list(x[rows]), heads, g[rows])
            want += np.stack([d for triple in zip(*d_heads) for d in triple])  # q heads, k heads, v heads
            np.testing.assert_allclose(dx[rows], d_rows, rtol=1e-12, atol=1e-12)
        for got, expected in zip(np.split(d_w, 3 * H, axis=1), want):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        B, D, H = 2, 3, 2
        x = rng.standard_normal((B * D, 4))
        wq, wk, wv = random_heads(rng, H)
        c = rng.standard_normal((B * D, 2 * H))
        d_w, dx = _attend_back(c, _attend(x, D, H, fuse_heads(wq, wk, wv))[1])
        fd = fd_gradients(lambda: float((attention(x, D, wq, wk, wv)[0] * c).sum()),
                          [x, *(w.data for w in wq + wk + wv)])
        assert_grads_match([dx, *np.split(d_w, 3 * H, axis=1)], fd)

    @pytest.mark.parametrize("D", [1, 3, 12])
    def test_weights_are_the_textbook_softmax_bit_for_bit(self, D):
        rng = np.random.default_rng(D)
        x = rng.uniform(-3, 3, size=(5 * D, 8))
        *_, q, k, _, alpha = _attend(x, D, 2, fuse_heads(*random_heads(rng, 2, de=8, dh=4, scale=2.0)))[1]
        logits = np.matmul(q, np.swapaxes(k, -1, -2))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(alpha, e / e.sum(axis=-1, keepdims=True))

    def test_maps_rows_lie_on_simplex(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, size=(4 * 7, 4))
        _, alpha = attention(x, 7, *random_heads(rng, 4, scale=3.0))
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(alpha >= 0) and np.all(alpha <= 1)

    def test_no_overflow_for_large_query_key_weights(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3 * 4, 4))
        wq, wk, wv = random_heads(rng, 2)
        for w in wq + wk:
            w.data *= 1e3
        out, alpha = attention(x, 4, wq, wk, wv)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(alpha))
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)

    def test_hand_value_at_two_fields(self):
        # logits of field 0 are (1, 1 + log 3), so its weights are (1/4, 3/4)
        one = [ad.Tensor([[1.0]])]
        x = np.array([[1.0], [1.0 + math.log(3.0)]])
        out, alpha = attention(x, 2, one, one, one)
        np.testing.assert_allclose(alpha[0, 0, 0], [0.25, 0.75], atol=1e-14)
        np.testing.assert_allclose(out[0, 0], 0.25 + 0.75 * (1.0 + math.log(3.0)), rtol=1e-14)


def random_layer(rng, H, de, depth, hidden, scale=1.0):
    """One layer's (H, 3, d_e, d_h) query, key and value weights, ``wres``
    and the FFN weights."""
    qkv, wres = parameters([scale * rng.standard_normal((H, 3, de, de // H)), rng.standard_normal((de, de))])
    dims = [de] + [hidden] * (depth - 1) + [de]
    ffn = parameters([rng.standard_normal((a, b)) / np.sqrt(a) for a, b in zip(dims[:-1], dims[1:])])
    return qkv, wres, ffn


def unstack(qkv):
    """Per-head (wq, wk, wv) lists of Tensors viewing an (H, 3, d_e, d_h) block."""
    return [[ad.Tensor(w) for w in qkv.data[:, j]] for j in range(3)]


class TestEncoderLayerOp:
    @given(st.integers(1, 4), st.integers(1, 5), st.sampled_from([1, 2, 4]), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_head_naive_loops(self, B, D, H, depth, seed):
        rng = np.random.default_rng(seed)
        de = 8
        x = rng.standard_normal((B * D, de))
        qkv, wres, ffn = random_layer(rng, H, de, depth, hidden=6)
        out, _, alpha = encoder_layer(x, D, qkv, wres, ffn)
        assert out.shape == (B * D, de) and alpha.shape == (B, H, D, D)
        heads = [tuple(qkv.data[h]) for h in range(H)]
        for b in range(B):
            want, want_alphas = naive_encoder_layer(
                list(x[b * D:(b + 1) * D]), heads, wres.data, [w.data for w in ffn]
            )
            np.testing.assert_allclose(out[b * D:(b + 1) * D], want, rtol=1e-12, atol=1e-12)
            for h in range(H):
                np.testing.assert_allclose(alpha[b, h], want_alphas[h], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_gradients_match_finite_differences(self, depth):
        self.check_gradients(depth, H=2)

    def test_gradients_of_four_heads_match_finite_differences(self):
        # each head's block of the query/key/value gradient gets its own columns
        self.check_gradients(2, H=4)

    @staticmethod
    def check_gradients(depth, H):
        rng = np.random.default_rng(40 + depth)
        B, D, de = 2, 3, 4
        x = rng.standard_normal((B * D, de))
        qkv, wres, ffn = random_layer(rng, H, de, depth, hidden=5)
        c = rng.standard_normal((B * D, de))
        params = [qkv, wres, *ffn]
        analytic = [encoder_layer(x, D, qkv, wres, ffn)[1](c), *(p.grad for p in params)]
        fd = fd_gradients(lambda: float((encoder_layer(x, D, qkv, wres, ffn)[0] * c).sum()),
                          [x, *(p.data for p in params)])
        assert_grads_match(analytic, fd)

    def test_attention_weights_are_multi_head_attentions(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3 * 5, 8))
        qkv, wres, ffn = random_layer(rng, 2, 8, 2, hidden=4)
        _, _, alpha = encoder_layer(x, 5, qkv, wres, ffn)
        assert np.array_equal(alpha, attention(x, 5, *unstack(qkv))[1])


class TestHeadOp:
    def layers(self, rng, dims):
        """A one-head stack's per-layer (1, fan_in, fan_out) weights and (1,
        fan_out) biases."""
        weights = parameters([rng.standard_normal((1, a, b)) for a, b in zip(dims[:-1], dims[1:])])
        biases = parameters([rng.standard_normal((1, b)) for b in dims[1:]])
        return weights, biases

    def test_matches_explicit_layers(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((5, 4))
        weights, biases = self.layers(rng, [4, 6, 3, 2])
        want = z
        for i, (w, b) in enumerate(zip(weights, biases)):
            want = (np.maximum(want, 0.0) if i else want) @ w.data[0] + b.data[0]
        np.testing.assert_array_equal(mlp_head(z, weights, biases)[0], [want])

    @pytest.mark.parametrize("dims", [[4, 1], [4, 6, 3, 2]], ids=["one-layer", "three-layers"])
    def test_gradients_match_finite_differences(self, dims):
        rng = np.random.default_rng(len(dims))
        z = rng.standard_normal((5, dims[0]))
        weights, biases = self.layers(rng, dims)
        c = rng.standard_normal((1, 5, dims[-1]))
        params = [*weights, *biases]
        analytic = [mlp_head(z, weights, biases)[1](c)[0], *(p.grad for p in params)]
        fd = fd_gradients(lambda: float((mlp_head(z, weights, biases)[0] * c).sum()), [z, *(p.data for p in params)])
        assert_grads_match(analytic, fd)


class TestHazardHeadsOp:
    @given(st.integers(1, 70), st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 5, 32]),
           st.sampled_from([1, 2, 10]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_head_of_a_stack_is_its_own_one_head_stack_bit_for_bit(self, B, K, head_layers, hidden, m, seed):
        """Outputs, every parameter's gradient view and the input gradients
        of both head stacks, the event heads' K-stack and the mp and ls
        heads' 2-stack, against one-head stacks, each over its head's own
        parameter views, their VJPs run one by one."""
        cfg = ModelConfig(embed_dim=4, heads=1, layers=0, hidden_size=hidden, head_layers=head_layers,
                          time_bins=m, n_events=K)
        model = SurvivalTransformer(cfg, small_schema(), TimeGrid(np.arange(1.0, m + 1)), seed=seed % 997)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((B, hidden))
        for group, prefixes, width in zip(model.heads, [[f"cs{k}" for k in range(K)], ["mp", "ls"]], [m, 1]):
            c = rng.standard_normal((len(prefixes), B, width))
            names = [name for name in model.params if name.split(".")[0] in prefixes]

            def own(prefix):  # a head's weights and biases as one-head stacks of its own views
                return ([M._stacked([model.params[f"{prefix}.{wb}{i}"]], (1,)) for i in range(head_layers)]
                        for wb in "wb")

            heads = [mlp_head(z, *own(prefix)) for prefix in prefixes]
            g_heads = [vjp(g[None]) for (_, vjp), g in zip(heads, c)]
            want = {name: model.params[name].grad.copy() for name in names}

            model.grad[:] = np.nan
            out, vjp = mlp_head(z, *group)
            g_z = vjp(c)
            assert out.shape == c.shape and g_z.shape == (len(prefixes), B, hidden)
            for k, ((h, _), g) in enumerate(zip(heads, g_heads)):
                assert np.array_equal(out[k], h[0]) and np.array_equal(g_z[k], g[0])
            for name in names:
                assert np.array_equal(model.params[name].grad, want[name]), name


class TestEncode:
    def test_no_layers_returns_raw_embeddings(self):
        model = make_model(layers=0)
        rec = record()
        fp = one_row(model, rec)
        np.testing.assert_array_equal(fp.encoded.reshape(-1), fp.raw.reshape(-1))
        assert model.export_attention(*rec) == []

    def test_zero_weights_finite_with_contract_shape(self):
        model = make_model()
        for name, p in model.params.items():
            if name.startswith("enc"):
                p.data[:] = 0.0
        flat = one_row(model, record()).encoded.reshape(-1)
        assert flat.shape == (4 * 8,)
        assert np.all(np.isfinite(flat))

    def test_deterministic(self):
        model = make_model(seed=9)
        a = one_row(model, record()).encoded.reshape(-1)
        b = one_row(model, record()).encoded.reshape(-1)
        assert np.array_equal(a, b)

    def test_matches_naive_loop_oracle(self):
        cfg = ModelConfig(embed_dim=8, heads=1, layers=1, ffn_depth=2,
                          hidden_size=16, head_layers=1, time_bins=5, n_events=1)
        rng = np.random.default_rng(21)
        for trial in range(5):
            model = SurvivalTransformer(cfg, small_schema(), small_grid(), seed=trial)
            rec = record(cat=(rng.integers(0, 3), rng.integers(0, 4)),
                         num=tuple(rng.standard_normal(2)))
            got = one_row(model, rec).encoded.reshape(-1)
            np.testing.assert_allclose(got, naive_encode(model, *rec), atol=1e-10)

    def test_gradients_reach_every_layer_weight(self):
        model = make_model(seed=4, layers=2)
        rec = record()
        cat = rec[0][None, :]
        num = rec[1][None, :]

        def encode():
            # the encoder layers over the embedding, and their VJPs chained last to first
            encoded, vjps = embed_fields(*model.embedding, cat, num)[0], []
            for layer in model.encoder:
                encoded, vjp, _ = encoder_layer(encoded, model.schema.d, *layer)
                vjps.append(vjp)
            return encoded, vjps

        model.grad[:] = np.nan
        encoded, vjps = encode()
        g = np.ones_like(encoded)
        for vjp in reversed(vjps):
            g = vjp(g)
        enc_params = [p for n, p in model.params.items() if n.startswith("enc")]
        analytic = [p.grad for p in enc_params]
        assert all(np.isfinite(g).all() for g in analytic)
        fd = fd_gradients(lambda: float(encode()[0].sum()), [p.data for p in enc_params])
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
        fp = model.forward_batch(rec[0][None, :], rec[1][None, :])
        np.testing.assert_array_equal(fp.shared, np.zeros((1, 16)))

    def test_width_is_hidden_size(self):
        model = make_model(hidden_size=16)
        fp = model.forward_batch(*random_batch(np.random.default_rng(0), 3))
        assert fp.shared.shape == (3, 16)

    def test_argument_order_matters_for_random_weights(self):
        model = make_model(seed=13)
        fp = model.forward_batch(*random_batch(np.random.default_rng(1), 4))
        encoded = fp.encoded.reshape(4, -1)
        raw = fp.raw.reshape(4, -1)
        w = model.params["sr.w"].data
        want = selu_ref(np.concatenate([encoded, raw], axis=1) @ w)
        np.testing.assert_allclose(fp.shared, want, rtol=1e-12, atol=1e-15)
        swapped = selu_ref(np.concatenate([raw, encoded], axis=1) @ w)
        assert not np.allclose(fp.shared, swapped)


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
        np.testing.assert_allclose(fp.hazards, math.log(2.0), rtol=1e-12)

    def test_hazard_length_is_bin_count(self):
        model = make_model()
        fp = model.forward_batch(*random_batch(np.random.default_rng(1), 3))
        assert fp.hazards.shape == (2, 3, 5)

    def test_hazards_positive_on_random_inputs(self):
        model = make_model(seed=8)
        fp = model.forward_batch(*random_batch(np.random.default_rng(2), 100))
        assert np.all(fp.hazards > 0)

    def test_one_hazard_head_per_event(self):
        for n_events in (1, 3):
            model = make_model(n_events=n_events)
            fp = model.forward_batch(*random_batch(np.random.default_rng(5), 2))
            assert fp.hazards.shape == (n_events, 2, 5)

    def test_zero_weights_give_neutral_task_outputs(self):
        model = self.zeroed_model()
        fp = model.forward_batch(*random_batch(np.random.default_rng(3), 6))
        np.testing.assert_array_equal(fp.event_prob, 0.5)
        np.testing.assert_array_equal(fp.time_pred, 0.0)

    def test_event_probability_strictly_inside_unit_interval(self):
        model = make_model(seed=6)
        fp = model.forward_batch(*random_batch(np.random.default_rng(4), 50))
        assert np.all((fp.event_prob > 0.0) & (fp.event_prob < 1.0))





class TestPredictHazards:
    @pytest.mark.parametrize("row, field, index", [(0, 0, -1), (300, 1, 4), (299, 0, 3)])
    def test_out_of_range_index_anywhere_in_the_batch_rejected(self, row, field, index):
        model = make_model()
        cat, num = random_batch(np.random.default_rng(1), 301)
        cat[row, field] = index
        name = ["treat", "stage"][field]
        with pytest.raises(ValueError, match=rf"categorical index {index} out of range for '{name}'"):
            model.predict_hazards(cat, num)

    @pytest.mark.parametrize("cat_shape, num_shape", [((5, 1), (5, 2)), ((5, 2), (5, 3)), ((5, 2), (4, 2)), ((2,), (2,))])
    def test_misshapen_batch_rejected(self, cat_shape, num_shape):
        with pytest.raises(ValueError, match="covariates"):
            make_model().predict_hazards(np.zeros(cat_shape, dtype=np.intp), np.zeros(num_shape))

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records to forward"):
            make_model().predict_hazards(np.zeros((0, 2), dtype=np.intp), np.zeros((0, 2)))

    @pytest.mark.parametrize("n", [1, INFER_CHUNK - 1, INFER_CHUNK, INFER_CHUNK + 1, 3 * INFER_CHUNK + 5])
    def test_chunked_forward_matches_one_whole_batch(self, n):
        model = make_model(seed=17)
        cat, num = random_batch(np.random.default_rng(n), n)
        fp = model.forward_batch(cat, num)
        want = fp.hazards.transpose(1, 0, 2)
        got = model.predict_hazards(cat, num)
        assert got.shape == (n, 2, 5)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_a_records_bytes_do_not_depend_on_the_records_after_it(self):
        # BLAS may round the last rows of a 43-row matmul differently from
        # those of a 44-row one, so every chunk must be forwarded at one shape
        model = SurvivalTransformer(ModelConfig(n_events=2), synthetic_schema(8), TimeGrid(np.arange(1.0, 11.0)))
        rng = np.random.default_rng(0)
        cat, num = np.zeros((INFER_CHUNK + 44, 0), dtype=np.intp), rng.standard_normal((INFER_CHUNK + 44, 8))
        short = model.predict_hazards(cat[:-1], num[:-1])
        assert short.tobytes() == model.predict_hazards(cat, num)[:-1].tobytes()

    def test_peak_memory_does_not_grow_with_record_count(self):
        model = make_model()
        peaks = []
        for n in (INFER_CHUNK, 8 * INFER_CHUNK):
            cat, num = random_batch(np.random.default_rng(0), n)
            tracemalloc.start()
            try:
                model.predict_hazards(cat, num)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # one whole-batch forward would grow the peak about eightfold
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestExportAttention:
    def test_uniform_maps_under_zero_query_key(self):
        model = make_model(heads=1, layers=1)
        model.params["enc0.h0.wq"].data[:] = 0.0
        model.params["enc0.h0.wk"].data[:] = 0.0
        maps = model.export_attention(*record())
        assert len(maps) == 1
        np.testing.assert_allclose(maps[0]["weights"], 0.25, atol=1e-15)

    def test_labels_follow_schema_field_order(self):
        model = make_model()
        maps = model.export_attention(*record())
        assert maps[0]["labels"] == ["treat", "stage", "age", "marker"]
        assert [(m["layer"], m["head"]) for m in maps] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_payload_is_json_ready(self):
        model = make_model()
        maps = model.export_attention(*record())
        assert [sorted(m) for m in maps] == [["head", "labels", "layer", "weights"]] * 4
        text = json.dumps(maps)
        assert "treat" in text


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = make_model(seed=31)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, extra={"note": 1})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        cat, num = np.array([[1, 2], [0, 0]]), np.array([[0.3, -0.7], [1.0, 1.0]])
        np.testing.assert_array_equal(
            model.predict_hazards(cat, num), loaded.predict_hazards(cat, num)
        )
        assert loaded.config == model.config
        assert loaded.grid.cuts.tobytes() == model.grid.cuts.tobytes()
        # loading writes into the parameter views, so the flat buffer holds
        # the saved parameters in draw order
        np.testing.assert_array_equal(loaded.data, model.data)

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

    @staticmethod
    def params_edit(*edits):
        """A payload edit that applies ``edits`` to its params in turn; each
        returns the new params or None to keep the old, edited in place."""
        def edit(payload):
            for step in edits:
                payload["params"] = step(payload["params"]) or payload["params"]
        return edit

    @pytest.mark.parametrize("edits, says", [
        ((lambda p: p.__delitem__("cs1.b0"), lambda p: p["embed.num"][0].__setitem__(0, "x")),
         "lacks parameters cs1.b0"),
        ((lambda p: p["embed.num"][0].__setitem__(0, "x"), lambda p: p.update({"sr.w": [[0.0]]})),
         "every entry of parameter 'embed.num' must be a finite number, got 'x'"),
        ((lambda p: p.update({"embed.num": [[0.0]]}), lambda p: p["sr.w"][0].__setitem__(0, None)),
         "checkpoint parameter 'embed.num' does not fit the rebuilt model"),
        ((lambda p: {"bogus": [0.0], **p}, lambda p: p["sr.w"][0].__setitem__(0, None)),
         "checkpoint parameter 'bogus' does not fit the rebuilt model"),
        ((lambda p: {"bogus": [0.0, "y"], **p},), "every entry of parameter 'bogus' must be a finite number, got 'y'"),
    ], ids=["absent-before-bad-entry", "bad-entry-before-wrong-shape", "wrong-shape-before-bad-entry",
            "unknown-name-before-bad-entry", "unknown-name-with-bad-entry"])
    def test_parameter_errors_keep_their_precedence(self, tmp_path, edits, says):
        # the absent parameter is named first; then, in the checkpoint's
        # order, an entry's values are judged before its name and shape
        path = self.edited_checkpoint(tmp_path, self.params_edit(*edits))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value).endswith(says), str(err.value)

    def test_parameter_array_count_comes_before_an_absent_parameter(self, tmp_path, monkeypatch):
        path = self.edited_checkpoint(tmp_path, lambda p: p["params"].pop("cs1.b0"))
        monkeypatch.setattr(M, "MAX_PARAMETERS", len(make_model().params) - 1)
        with pytest.raises(ValueError, match="asks for more than"):
            load_checkpoint(path)

    def test_loading_draws_no_parameter(self, tmp_path, monkeypatch):
        model, path = make_model(seed=5), tmp_path / "ckpt.json"
        save_checkpoint(path, model)
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise TypeError
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.data, model.data)
        assert not loaded.grad.any()


class TestConfigValidation:
    @pytest.mark.parametrize("heads", [0, -1])
    def test_nonpositive_heads_rejected_before_division(self, heads):
        with pytest.raises(ValueError, match="heads must be positive"):
            ModelConfig(embed_dim=8, heads=heads)

    def test_heads_must_divide_embed_dim(self):
        with pytest.raises(ValueError, match="divide"):
            ModelConfig(embed_dim=8, heads=3)

    def test_grid_and_config_bin_counts_must_agree(self):
        cfg = ModelConfig(embed_dim=8, heads=2, time_bins=7)
        with pytest.raises(ValueError, match="time_bins"):
            SurvivalTransformer(cfg, small_schema(), small_grid(), seed=0)


    @pytest.mark.parametrize("overrides, schema", LAYOUTS, ids=LAYOUT_IDS)
    def test_parameter_array_count_is_judged_exactly_before_drawing(self, monkeypatch, overrides, schema):
        config = ModelConfig(**{"embed_dim": 8, "heads": 2, "time_bins": 5, **overrides})
        model = SurvivalTransformer(config, schema, small_grid())
        monkeypatch.setattr(M, "MAX_PARAMETERS", len(model.params))
        SurvivalTransformer(config, schema, small_grid())
        monkeypatch.setattr(M, "MAX_PARAMETERS", len(model.params) - 1)
        with pytest.raises(ValueError, match=f"asks for more than {len(model.params) - 1} parameter arrays"):
            SurvivalTransformer(config, schema, small_grid())


@pytest.mark.parametrize("overrides, schema", LAYOUTS, ids=LAYOUT_IDS)
def test_parameters_follow_the_documented_draw_and_block_groups(overrides, schema):
    """Names in draw order, shapes and values bit for bit against a replay
    of the draw, and each block's group holding the parameters its op takes;
    an encoder layer's query, key and value weights and each head group's
    per-layer weights and biases (the event heads, then mp, then ls) are
    stacked views over those parameters."""
    c = ModelConfig(**{"embed_dim": 8, "heads": 2, "time_bins": 5, **overrides})
    model = SurvivalTransformer(c, schema, small_grid(), seed=23)
    want = naive_parameter_draw(c, schema, seed=23)
    assert list(model.params) == [name for name, _ in want]
    for name, array in want:
        got = model.params[name].data
        assert got.shape == array.shape and np.array_equal(got, array), name

    names = {id(t): name for name, t in model.params.items()}

    def named(group):
        if isinstance(group, ad.Tensor):
            return names[id(group)]
        return None if group is None else [named(g) for g in group]

    encoder = [[wres, ffn] for _, wres, ffn in model.encoder]
    assert named([model.embedding, encoder, model.projection]) == [
        [[f"embed.cat{i}" for i in range(schema.d_c)], "embed.num" if schema.d_n else None],
        [[f"enc{layer}.wres", [f"enc{layer}.ffn{i}" for i in range(c.ffn_depth)]] for layer in range(c.layers)],
        "sr.w",
    ]

    # the stacked groups are views of the flat buffers over the parameters
    # they stack: with every buffer entry distinct, equal values are the
    # same entries
    model.data[:] = np.arange(model.data.size)
    model.grad[:] = -np.arange(model.grad.size)
    stacked = [(qkv, [[f"enc{layer}.h{h}.{w}" for w in ("wq", "wk", "wv")] for h in range(c.heads)])
               for layer, (qkv, _, _) in enumerate(model.encoder)]
    # the heads: the event heads, then mp and ls, each layer's weights and
    # biases stacked over its heads
    assert len(model.heads) == 2
    for group, heads in zip(model.heads, [[f"cs{k}" for k in range(c.n_events)], ["mp", "ls"]]):
        for part, wb in zip(group, "wb"):
            stacked += [(t, [f"{p}.{wb}{i}" for p in heads]) for i, t in enumerate(part)]
    assert len(stacked) == c.layers + 4 * c.head_layers
    for t, grouped in stacked:
        assert np.shares_memory(t.data, model.data) and np.shares_memory(t.grad, model.grad)
        want = [model.params[name] for name in np.ravel(grouped)]
        assert np.array_equal(t.data.reshape(len(want), -1), [p.data.reshape(-1) for p in want])
        assert np.array_equal(t.grad.reshape(len(want), -1), [p.grad.reshape(-1) for p in want])


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("n_events", [1, 3])
@pytest.mark.parametrize("head_layers", [1, 2])
def test_network_backward_is_its_blocks_on_the_tape_bit_for_bit(layers, n_events, head_layers):
    """``ForwardPass.backward`` writes every entry of ``model.grad`` as the
    blocks' VJPs chained by hand in a tape's summation order do, under the
    same head cotangents, on categorical and numerical fields; it returns no
    input cotangent."""
    model = make_model(seed=layers, layers=layers, n_events=n_events, head_layers=head_layers)
    rng = np.random.default_rng(10 * layers + n_events + head_layers)
    cat, num = random_batch(rng, 7)
    cotangents = rng.standard_normal((n_events, 7, 5)), rng.standard_normal(7), rng.standard_normal(7)
    want = chained_network_grad(model, cat, num, *cotangents)
    model.grad[:] = np.nan
    assert model.forward_batch(cat, num).backward(*cotangents) == ()
    assert np.array_equal(model.grad, want)


def test_a_pass_makes_two_head_calls_and_two_head_vjp_calls(monkeypatch):
    """``forward_batch`` runs the event heads and the mp and ls heads as two
    ``mlp_head`` stacks, and its backward runs each stack's VJP once."""
    calls = {"forward": 0, "backward": 0}

    def counted(*args):
        calls["forward"] += 1
        out, vjp = mlp_head(*args)

        def back(g):
            calls["backward"] += 1
            return vjp(g)

        return out, back

    monkeypatch.setattr(M, "mlp_head", counted)
    model = make_model(n_events=3)
    cat, num = random_batch(np.random.default_rng(2), 5)
    fp = model.forward_batch(cat, num)
    assert calls == {"forward": 2, "backward": 0}
    fp.backward(np.ones((3, 5, 5)), np.ones(5), np.ones(5))
    assert calls == {"forward": 2, "backward": 2}


def test_forward_rejects_a_nonfinite_output():
    """Each forward checks its outputs once, so an infinite covariate is
    refused, with no numpy warning, instead of handed on as NaN hazards."""
    for layers in (0, 2):
        model = make_model(layers=layers)
        cat, num = random_batch(np.random.default_rng(3), 4)
        num[2, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for forward in (model.forward_batch, model.predict_hazards):
                with pytest.raises(ValueError, match="non-finite network output: event-1 hazards"):
                    forward(cat, num)


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
    params = list(model.params.values())
    analytic = [p.grad for p in params]
    fd = fd_gradients(lambda: forward()[0], [p.data for p in params])
    assert_grads_match(analytic, fd)
