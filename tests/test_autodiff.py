"""Differentiation engine: the backward sweep, the array functions the
blocks compute with, and finite-difference checks of every block's and
loss's VJP, each put on the tape as one node."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import autodiff as ad
from survformer import losses as L
from survformer.data import TimeGrid
from survformer.model import embed_fields, encoder_layer, mlp_head, shared_projection

from oracles import assert_grads_match, block_node, fd_gradients, probe


def tensor(values):
    """A leaf Tensor: an op input that is not a parameter."""
    return ad.Tensor(np.asarray(values, dtype=np.float64))


def parameter(values):
    """A parameter Tensor, viewing its own flat data and gradient buffers."""
    return ad.flat_parameters([np.asarray(values, dtype=np.float64)])[2][0]


class TestSelu:
    def test_zero(self):
        assert ad.selu_array(np.array([0.0]))[0] == 0.0

    def test_positive_branch(self):
        np.testing.assert_allclose(ad.selu_array(np.array([1.0]))[0], 1.0507, atol=1e-4)

    def test_negative_saturation(self):
        # limit of the exponential branch is -lambda*alpha
        val = ad.selu_array(np.array([-60.0]))[0]
        np.testing.assert_allclose(val, -1.7581, atol=1e-4)
        np.testing.assert_allclose(val, -ad.SELU_LAMBDA * ad.SELU_ALPHA, rtol=1e-12)

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        out = ad.selu_array(np.array([lo, hi]))
        assert out[0] <= out[1]

    def test_writes_its_result_into_its_argument(self):
        x = np.array([[-2.0, 0.0], [0.5, 3.0]])
        want = ad.selu_array(x.copy())
        out = ad.selu_array(x)
        assert out is x
        np.testing.assert_array_equal(x, want)

    def test_rejects_an_argument_it_cannot_write_its_result_into(self):
        with pytest.raises(TypeError, match="Cannot cast ufunc 'maximum' output"):
            ad.selu_array(np.array([1, -2]))
        with pytest.raises(TypeError):
            ad.selu_array([1.0, -2.0])
        frozen = np.array([1.0, -2.0])
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            ad.selu_array(frozen)
        assert frozen.tolist() == [1.0, -2.0]


class TestSeluSlope:
    """``selu_slope`` reads the derivative from the SELU output."""

    def test_exactly_lambda_on_the_positive_branch(self):
        x = np.array([5e-324, 1e-300, 1e-8, 0.5, 1.0, 10.0, 1e10, 1e300])
        assert np.all(ad.selu_slope(ad.selu_array(x)) == ad.SELU_LAMBDA)

    def test_lambda_alpha_at_zero(self):
        assert ad.selu_slope(ad.selu_array(np.zeros(3))).tolist() == [ad.SELU_LAMBDA * ad.SELU_ALPHA] * 3

    def test_matches_the_exponential_on_the_negative_branch(self):
        x = np.linspace(-800.0, 0.0, 100_001)
        want = ad.SELU_LAMBDA * ad.SELU_ALPHA * np.exp(x)
        np.testing.assert_allclose(ad.selu_slope(ad.selu_array(x.copy())), want, rtol=0, atol=1e-15)

    def test_is_the_select_bit_for_bit(self):
        # min(y, 0) + λα − [y > 0]·(λα − λ), against the per-element select it replaces
        lam, lam_alpha = ad.SELU_LAMBDA, ad.SELU_LAMBDA * ad.SELU_ALPHA
        rng = np.random.default_rng(20)
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -800.0])
        for y in [edges, *(rng.standard_normal((256, 16)) * scale for scale in (1.0, 1e-3, 30.0))]:
            got, want = ad.selu_slope(y), np.where(y > 0, lam, y + lam_alpha)
            assert got.tobytes() == want.tobytes()


class TestSoftplus:
    def test_zero(self):
        np.testing.assert_allclose(ad.softplus_array(np.array([0.0]))[0], math.log(2.0), rtol=1e-12)

    def test_large_input_asymptote(self):
        np.testing.assert_allclose(ad.softplus_array(np.array([100.0]))[0], 100.0, atol=1e-10)

    def test_derivative_at_zero(self):
        # the softplus link's backward multiplies by ``logistic``
        h = 1e-6
        fd = (ad.softplus_array(np.array([h])) - ad.softplus_array(np.array([-h]))) / (2 * h)
        np.testing.assert_allclose(fd, [0.5], rtol=1e-9)
        np.testing.assert_allclose(ad.logistic(np.array([0.0])), [0.5], rtol=1e-12)

    def test_strictly_positive(self):
        assert np.all(ad.softplus_array(np.linspace(-700, 700, 101)) > 0)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        out = ad.softplus_array(np.array([lo, hi]))
        assert out[0] <= out[1]

    def test_link_slope_read_from_the_output_is_logistic(self):
        # a unit weight and zero bias make the head's pre-activation its
        # input, so the input's gradient under a unit cotangent is the slope
        a = np.linspace(-700.0, 700.0, 100_001)
        z = tensor(a[:, None])
        w, b = parameter([[[1.0]]]), parameter([[0.0]])
        ad.backward(probe(block_node(*mlp_head(z.data, [w], [b], "softplus"), z)))
        np.testing.assert_allclose(z.grad[:, 0], ad.logistic(a), rtol=1e-15, atol=0)


def one_layer_head(rng, link, inputs=4, outputs=1):
    """A fixed (3, inputs) head input and a one-head stack of one trainable
    layer into ``link``."""
    z = tensor(rng.standard_normal((3, inputs)))
    w, b = parameter(rng.standard_normal((1, inputs, outputs))), parameter(rng.standard_normal((1, outputs)))
    return (lambda: block_node(*mlp_head(z.data, [w], [b], link), z)), [w, b]


class TestBackward:
    def test_sum_gives_ones(self):
        p = tensor(np.arange(6.0).reshape(2, 3))
        ad.backward(probe(p))
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_scalar_chain_matches_finite_difference(self):
        head, params = one_layer_head(np.random.default_rng(3), "softplus")

        def build():
            return probe(head())

        ad.backward(build())
        assert_grads_match([p.grad for p in params], fd_gradients(lambda: float(build().data), params))

    def test_disjoint_losses_add(self):
        rng = np.random.default_rng(4)
        head_a, (a1, _) = one_layer_head(rng, "logistic")
        head_b, (b1, _) = one_layer_head(rng, "softplus")
        ad.backward(probe(probe(head_a()), probe(head_b())))
        both = a1.grad.copy(), b1.grad.copy()  # the views are rewritten below
        ad.backward(probe(head_a()))
        ad.backward(probe(head_b()))
        np.testing.assert_array_equal(both[0], a1.grad)
        np.testing.assert_array_equal(both[1], b1.grad)

    def test_repeated_backward_is_bitwise_identical(self):
        head, (w, _) = one_layer_head(np.random.default_rng(5), "logistic", outputs=2)
        loss = probe(head())
        ad.backward(loss)
        first = w.grad.copy()
        ad.backward(loss)
        assert np.array_equal(first, w.grad)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tensor([1.0, 2.0]))

    def test_reused_operand_accumulates(self):
        a = tensor([3.0])
        ad.backward(probe(a, a, weights=[3.0]))
        np.testing.assert_allclose(a.grad, [6.0], rtol=1e-12)

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_gradient_handed_to_two_parents_is_never_mutated(self, shared_first):
        # the first probe hands one gradient array to p and q; p then takes
        # a second contribution, which must not write into the array q holds
        p, q = tensor([1.0, 2.0]), tensor([3.0, 4.0])
        both = probe(p, q)
        scaled = probe(p, weights=[5.0, -7.0])
        ad.backward(probe(both, scaled) if shared_first else probe(scaled, both))
        np.testing.assert_array_equal(q.grad, [1.0, 1.0])
        np.testing.assert_array_equal(p.grad, [6.0, -6.0])

    def test_gradient_tape_holds_no_parameters(self):
        # the tape is the leaf input, the head op and the probe; the head's
        # parameters are not nodes, yet the sweep writes their gradient views
        head, (w, b) = one_layer_head(np.random.default_rng(6), None)
        loss = probe(head())
        tape = ad.GradientTape(loss)
        assert len(tape.nodes) == 3 and tape.nodes[-1] is loss
        assert not {id(n) for n in tape.nodes} & {id(w), id(b)}
        w.grad[...], b.grad[...] = np.nan, np.nan
        tape.run()
        assert np.isfinite(w.grad).all() and np.array_equal(b.grad, [[3.0]])


def loss_node(loss, leaf, target):
    """``loss`` of ``leaf``'s data against ``target`` as one tape node over
    ``leaf``, from the loss's value and VJP."""
    value, vjp = loss(leaf.data, target)
    return ad.node(value, (leaf,), lambda g: (vjp(g),))


def _gradcheck_cases():
    """One builder per block or loss (the embedding in three field mixes,
    the shared projection with no and with two encoder layers, each head
    link, an encoder layer over 3, 1 and 12 fields, three stacked hazard
    heads), each block's or loss's value and VJP one tape node over its leaf
    or block-node inputs; each returns (loss closure, params)."""
    rng = np.random.default_rng(12)
    B, de = 5, 4

    def rand(*shape):
        return tensor(rng.standard_normal(shape))

    def param(*shape):
        return parameter(rng.standard_normal(shape))

    def probed(build):
        c = rng.standard_normal(build().data.shape)
        return lambda: probe(build(), weights=c)

    def embedding(d_c, d_n):
        # three rows per table, so five records repeat some looked-up rows
        tables = [param(3, de) for _ in range(d_c)]
        weight = param(d_n, de) if d_n else None
        cat = rng.integers(0, 3, size=(B, d_c))
        num = rng.standard_normal((B, d_n))
        params = tables + ([weight] if d_n else [])
        return (lambda: block_node(*embed_fields(tables, weight, cat, num))), params

    def layer(D):
        # every head's wq, then wk, then wv, as drawn for per-head weights
        qkv = parameter(np.stack([rng.standard_normal((2, de, 2)) for _ in range(3)], axis=1))
        wres, ffn = param(de, de), [param(de, 3), param(3, de)]
        return (lambda x: block_node(*encoder_layer(x.data, D, qkv, wres, ffn)[:2], x)), [qkv, wres, *ffn]

    def case_embed_categorical():
        build, params = embedding(2, 0)
        return probed(build), params

    def case_embed_numerical():
        build, params = embedding(0, 3)
        return probed(build), params

    def case_embed_both():
        build, params = embedding(2, 2)
        return probed(build), params

    def case_shared_projection_no_layers():
        embed, params = embedding(1, 2)
        w = param(2 * 3 * de, 5)

        def build():
            raw = embed()
            return block_node(*shared_projection(raw.data, raw.data, w), raw, raw)

        return probed(build), [*params, w]

    def case_shared_projection_two_layers():
        embed, params = embedding(1, 2)
        (first, first_params), (second, second_params) = layer(3), layer(3)
        w = param(2 * 3 * de, 5)

        def build():
            raw = embed()
            encoded = second(first(raw))
            return block_node(*shared_projection(encoded.data, raw.data, w), encoded, raw)

        return probed(build), [*params, *first_params, *second_params, w]

    def head(link, out):
        # a one-head stack
        z = rand(B, 6)
        weights, biases = [param(1, 6, 4), param(1, 4, out)], [param(1, 4), param(1, out)]
        return probed(lambda: block_node(*mlp_head(z.data, weights, biases, link), z)), [z, *weights, *biases]

    def case_head_softplus():
        return head("softplus", 3)

    def case_head_logistic():
        return head("logistic", 1)

    def case_head_identity():
        return head(None, 1)

    def case_hazard_heads():
        # three stacked softplus heads of two layers
        z = rand(B, 6)
        weights, biases = [param(3, 6, 4), param(3, 4, 3)], [param(3, 4), param(3, 3)]
        return probed(lambda: block_node(*mlp_head(z.data, weights, biases, "softplus"), z)), [z, *weights, *biases]

    def case_total():
        # each part the value of a (1,) leaf, which the finite differences perturb
        leaves = [rand(1) for _ in range(3)]
        schedule = L.AnnealSchedule(initial=tuple(rng.uniform(0.1, 2.0, 2)), horizon=4)
        epoch = int(rng.integers(0, 4))

        def build():
            parts = [(leaf.data[0], lambda g: g * np.ones(1)) for leaf in leaves]
            total, _, vjp = L.total_loss_tensor(*parts, schedule, epoch)
            return ad.node(total, leaves, vjp)

        return build, leaves

    def encoder(D):
        x = rand(2 * D, de)
        build, params = layer(D)
        return probed(lambda: build(x)), [x, *params]

    def case_encoder_layer():
        return encoder(3)

    def case_encoder_layer_one_field():
        return encoder(1)

    def case_encoder_layer_twelve_fields():
        return encoder(12)

    def case_survival():
        grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
        hazards = tensor(rng.uniform(0.2, 2.0, (2, B, 3)))
        t, e = rng.uniform(0.0, 3.5, B), rng.integers(0, 3, B)
        targets = L.survival_targets(grid, t, e, rng.uniform(0.2, 0.8, (B, 2)))
        return (lambda: loss_node(L.competing_survival_loss, hazards, targets)), [hazards]

    def case_mp():
        prob = tensor(rng.uniform(0.05, 0.95, B))
        labels = (rng.uniform(size=B) > 0.5).astype(float)
        return (lambda: loss_node(L.mp_loss_tensor, prob, labels)), [prob]

    def case_ls():
        pred = rand(B)
        observed = rng.standard_normal(B)
        return (lambda: loss_node(L.ls_loss_tensor, pred, observed)), [pred]

    builders = [
        case_embed_categorical, case_embed_numerical, case_embed_both,
        case_shared_projection_no_layers, case_shared_projection_two_layers,
        case_head_softplus, case_head_logistic, case_head_identity, case_total,
        case_encoder_layer, case_survival, case_mp, case_ls,
        case_encoder_layer_one_field, case_encoder_layer_twelve_fields, case_hazard_heads,
    ]
    out = []
    for i in range(64):
        out.append(builders[i % len(builders)]())
    return out


@pytest.mark.parametrize("case_idx", range(64))
def test_all_ops_match_finite_differences(case_idx):
    """Every block's and loss's VJP agrees with central differences on
    random inputs."""
    build, params = _gradcheck_cases()[case_idx]
    ad.backward(build())
    analytic = [p.grad for p in params]
    fd = fd_gradients(lambda: float(build().data), params)
    assert_grads_match(analytic, fd)
