"""Differentiation engine: the loss node's backward pass, the array
functions the blocks compute with, and finite-difference checks of every
block's and loss's VJP, each called on its own."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import autodiff as ad
from survformer import losses as L
from survformer.data import TimeGrid
from survformer.model import ForwardPass, embed_fields, encoder_layer, mlp_head, shared_projection

from oracles import assert_grads_match, fd_gradients


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
        # ``ForwardPass.backward`` over hazards softplus(a), with head VJPs
        # that hand their cotangents on and zero any-event and follow-up-time
        # cotangents: the projection gets the slope under a unit cotangent
        a = np.linspace(-700.0, 700.0, 100_001)
        got = []
        fp = ForwardPass(None, None, None, ad.softplus_array(a)[None, :, None], np.full(a.size, 0.5),
                         np.zeros(a.size), [], (lambda g: (), [], lambda g: got.append(g) or (0.0, 0.0),
                                                (lambda g: g, lambda g: g)))
        fp.backward(np.ones((1, a.size, 1)), np.zeros(a.size), np.zeros(a.size))
        np.testing.assert_allclose(got[0][:, 0], ad.logistic(a), rtol=1e-15, atol=0)


def one_layer_head(rng, link, slope, inputs=4, outputs=1):
    """A fixed (3, inputs) head input and a one-head stack of one trainable
    layer under ``link``, whose derivative ``slope`` reads from the link's
    output: the head's (output, VJP) closure and its parameters."""
    z = rng.standard_normal((3, inputs))
    w, b = parameter(rng.standard_normal((1, inputs, outputs))), parameter(rng.standard_normal((1, outputs)))

    def head():
        a, vjp = mlp_head(z, [w], [b])
        out = link(a)
        return out, lambda g: vjp(g * slope(out))

    return head, [w, b]


class TestBackward:
    def test_scalar_chain_matches_finite_difference(self):
        head, params = one_layer_head(np.random.default_rng(3), ad.softplus_array, lambda h: -np.expm1(-h))
        out, vjp = head()
        vjp(np.ones_like(out))
        fd = fd_gradients(lambda: float(head()[0].sum()), [p.data for p in params])
        assert_grads_match([p.grad for p in params], fd)

    def test_repeated_backward_is_bitwise_identical(self):
        head, (w, _) = one_layer_head(np.random.default_rng(5), ad.logistic, lambda p: p * (1.0 - p), outputs=2)
        out, vjp = head()
        loss = ad.Tensor(out.sum(), backward=lambda g: vjp(g * np.ones_like(out)))
        ad.backward(loss)
        first = w.grad.copy()
        ad.backward(loss)
        assert np.array_equal(first, w.grad)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.Tensor([1.0, 2.0]))


def _gradcheck_cases():
    """One case per block or loss (the embedding in three field mixes, the
    shared projection with no and with two encoder layers chained by hand,
    a head under each link, an encoder layer over 3, 1 and 12 fields, three
    stacked softplus hazard heads), each (forward, arrays): ``forward()``
    gives the case's scalar loss and a closure that runs its VJPs and
    returns the analytic gradient of each array, the input cotangents the
    VJPs return, then the parameters' gradient views; ``arrays`` are what
    finite differences perturb, the inputs and then the parameters' data."""
    rng = np.random.default_rng(12)
    B, de = 5, 4

    def rand(*shape):
        return rng.standard_normal(shape)

    def param(*shape):
        return parameter(rng.standard_normal(shape))

    def probed(block, params, inputs=()):
        # ``block()`` gives an output and a VJP returning the input
        # cotangents as a list; the loss is sum(c · output) for fixed weights c
        c = rng.standard_normal(block()[0].shape)

        def forward():
            out, vjp = block()
            return float((out * c).sum()), lambda: [*vjp(c), *(p.grad for p in params)]

        return forward, [*inputs, *(p.data for p in params)]

    def one_input(value, vjp):
        return value, lambda g: [vjp(g)]

    def linked(z, weights, biases, link, slope):
        # a head stack under ``link``, its slope read from the output; the
        # input cotangent is the heads' summed
        a, vjp = mlp_head(z, weights, biases)
        out = link(a)
        return out, lambda g: [vjp(g * slope(out)).sum(axis=0)]

    softplus = ad.softplus_array, lambda h: -np.expm1(-h)

    def embedding(d_c, d_n):
        # three rows per table, so five records repeat some looked-up rows
        tables = [param(3, de) for _ in range(d_c)]
        weight = param(d_n, de) if d_n else None
        cat = rng.integers(0, 3, size=(B, d_c))
        num = rng.standard_normal((B, d_n))
        params = tables + ([weight] if d_n else [])
        return (lambda: embed_fields(tables, weight, cat, num)), params

    def layer(D):
        # every head's wq, then wk, then wv, as drawn for per-head weights
        qkv = parameter(np.stack([rng.standard_normal((2, de, 2)) for _ in range(3)], axis=1))
        wres, ffn = param(de, de), [param(de, 3), param(3, de)]
        return (lambda x: encoder_layer(x, D, qkv, wres, ffn)[:2]), [qkv, wres, *ffn]

    def case_embed_categorical():
        return probed(*embedding(2, 0))

    def case_embed_numerical():
        return probed(*embedding(0, 3))

    def case_embed_both():
        return probed(*embedding(2, 2))

    def case_shared_projection_no_layers():
        embed, params = embedding(1, 2)
        w = param(2 * 3 * de, 5)

        def block():
            raw, embed_vjp = embed()
            out, vjp = shared_projection(raw, raw, w)

            def back(g):
                g_enc, g_raw = vjp(g)
                return embed_vjp(g_enc + g_raw)

            return out, back

        return probed(block, [*params, w])

    def case_shared_projection_two_layers():
        embed, params = embedding(1, 2)
        (first, first_params), (second, second_params) = layer(3), layer(3)
        w = param(2 * 3 * de, 5)

        def block():
            raw, embed_vjp = embed()
            hidden, first_vjp = first(raw)
            encoded, second_vjp = second(hidden)
            out, vjp = shared_projection(encoded, raw, w)

            def back(g):
                g_enc, g_raw = vjp(g)
                return embed_vjp(g_raw + first_vjp(second_vjp(g_enc)))

            return out, back

        return probed(block, [*params, *first_params, *second_params, w])

    def head(link, out):
        # a one-head stack
        z = rand(B, 6)
        weights, biases = [param(1, 6, 4), param(1, 4, out)], [param(1, 4), param(1, out)]
        return probed(lambda: linked(z, weights, biases, *link), [*weights, *biases], [z])

    def case_head_softplus():
        return head(softplus, 3)

    def case_head_logistic():
        return head((ad.logistic, lambda p: p * (1.0 - p)), 1)

    def case_head_identity():
        return head((lambda a: a, lambda a: 1.0), 1)

    def case_hazard_heads():
        # three stacked softplus heads of two layers
        z = rand(B, 6)
        weights, biases = [param(3, 6, 4), param(3, 4, 3)], [param(3, 4), param(3, 3)]
        return probed(lambda: linked(z, weights, biases, *softplus), [*weights, *biases], [z])

    def case_total():
        # each part the value of a (1,) input, which the finite differences perturb
        parts = [rand(1) for _ in range(3)]
        initial, epoch = rng.uniform(0.1, 2.0, 2), int(rng.integers(0, 4))
        gammas = tuple(initial * max(0.0, 1.0 - epoch / 4))  # as an anneal horizon of 4 weights them

        def forward():
            total, _, vjp = L.total_loss_tensor(*((x[0], lambda g: g * np.ones(1)) for x in parts), gammas)
            return float(total), lambda: list(vjp(1.0))

        return forward, parts

    def encoder(D):
        x = rand(2 * D, de)
        build, params = layer(D)
        return probed(lambda: one_input(*build(x)), params, [x])

    def case_encoder_layer():
        return encoder(3)

    def case_encoder_layer_one_field():
        return encoder(1)

    def case_encoder_layer_twelve_fields():
        return encoder(12)

    def loss_case(loss, x, target):
        def forward():
            value, vjp = loss(x, target)
            return float(value), lambda: [vjp(1.0)]

        return forward, [x]

    def case_survival():
        grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
        hazards = rng.uniform(0.2, 2.0, (2, B, 3))
        t, e = rng.uniform(0.0, 3.5, B), rng.integers(0, 3, B)
        targets = L.survival_targets(grid, t, e, rng.uniform(0.2, 0.8, (B, 2)))
        return loss_case(L.competing_survival_loss, hazards, targets)

    def case_mp():
        prob = rng.uniform(0.05, 0.95, B)
        labels = (rng.uniform(size=B) > 0.5).astype(float)
        return loss_case(L.mp_loss_tensor, prob, labels)

    def case_ls():
        pred = rand(B)
        observed = rng.standard_normal(B)
        return loss_case(L.ls_loss_tensor, pred, observed)

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
    forward, arrays = _gradcheck_cases()[case_idx]
    analytic = forward()[1]()
    assert_grads_match(analytic, fd_gradients(lambda: forward()[0], arrays))
