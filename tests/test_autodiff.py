"""Differentiation engine: forward values, gradients, and determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import autodiff as ad

from oracles import assert_grads_match, fd_gradients


def tensor(values, grad=True):
    return ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(tensor(np.eye(2)), tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_hand_product(self):
        out = ad.matmul(tensor([[1.0, 2.0]]), tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 2))))

    def test_grad_of_sum_is_ones_times_b_transpose(self):
        rng = np.random.default_rng(7)
        a = tensor(rng.standard_normal((3, 4)))
        b = tensor(rng.standard_normal((4, 2)))
        loss = ad.tsum(ad.matmul(a, b))
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-12)
        fd = fd_gradients(lambda: float(ad.tsum(ad.matmul(a, b)).data), [a, b])
        assert_grads_match([a.grad, b.grad], fd)

    def test_rejects_3d_operands_naming_both_shapes(self):
        with pytest.raises(ad.DimensionError, match=r"\(2, 3, 4\).*\(4, 5\)"):
            ad.matmul(tensor(np.zeros((2, 3, 4))), tensor(np.zeros((4, 5))))
        with pytest.raises(ad.DimensionError, match=r"\(3, 4\).*\(2, 4, 5\)"):
            ad.matmul(tensor(np.zeros((3, 4))), tensor(np.zeros((2, 4, 5))))


class TestSelu:
    def test_zero(self):
        assert ad.selu(tensor([0.0])).data[0] == 0.0

    def test_positive_branch(self):
        np.testing.assert_allclose(ad.selu(tensor([1.0])).data[0], 1.0507, atol=1e-4)

    def test_negative_saturation(self):
        # limit of the exponential branch is -lambda*alpha
        val = ad.selu(tensor([-60.0])).data[0]
        np.testing.assert_allclose(val, -1.7581, atol=1e-4)
        np.testing.assert_allclose(val, -ad.SELU_LAMBDA * ad.SELU_ALPHA, rtol=1e-12)

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        out = ad.selu(tensor([lo, hi])).data
        assert out[0] <= out[1]


class TestSoftplus:
    def test_zero(self):
        np.testing.assert_allclose(ad.softplus(tensor([0.0])).data[0], math.log(2.0), rtol=1e-12)

    def test_large_input_asymptote(self):
        np.testing.assert_allclose(ad.softplus(tensor([100.0])).data[0], 100.0, atol=1e-10)

    def test_derivative_at_zero(self):
        x = tensor([0.0])
        ad.backward(ad.tsum(ad.softplus(x)))
        np.testing.assert_allclose(x.grad, [0.5], rtol=1e-12)

    def test_strictly_positive(self):
        out = ad.softplus(tensor(np.linspace(-700, 700, 101)))
        assert np.all(out.data > 0)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        out = ad.softplus(tensor([lo, hi])).data
        assert out[0] <= out[1]


class TestBackward:
    def test_sum_gives_ones(self):
        p = tensor(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.tsum(p))
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_scalar_chain_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        w = tensor(rng.standard_normal((1, 4)))
        x = tensor(rng.standard_normal((4, 1)), grad=False)

        def build():
            return ad.tsum(ad.softplus(ad.matmul(w, x)))

        ad.backward(build())
        assert_grads_match([w.grad], fd_gradients(lambda: float(build().data), [w]))

    def test_disjoint_losses_add(self):
        rng = np.random.default_rng(4)
        a_data = rng.standard_normal((3,))
        b_data = rng.standard_normal((3,))

        a1, b1 = tensor(a_data), tensor(b_data)
        ad.backward(ad.add(ad.tsum(ad.selu(a1)), ad.tsum(ad.softplus(b1))))

        a2 = tensor(a_data)
        ad.backward(ad.tsum(ad.selu(a2)))
        b2 = tensor(b_data)
        ad.backward(ad.tsum(ad.softplus(b2)))

        np.testing.assert_array_equal(a1.grad, a2.grad)
        np.testing.assert_array_equal(b1.grad, b2.grad)

    def test_repeated_backward_is_bitwise_identical(self):
        rng = np.random.default_rng(5)
        w = tensor(rng.standard_normal((3, 3)))
        x = tensor(rng.standard_normal((3, 2)), grad=False)
        loss = ad.tsum(ad.sigmoid(ad.matmul(w, x)))
        ad.backward(loss)
        first = w.grad.copy()
        ad.backward(loss)
        assert np.array_equal(first, w.grad)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tensor([1.0, 2.0]))

    def test_reused_operand_accumulates(self):
        a = tensor([3.0])
        ad.backward(ad.tsum(ad.mul(a, a)))
        np.testing.assert_allclose(a.grad, [6.0], rtol=1e-12)

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_gradient_handed_to_two_parents_is_never_mutated(self, shared_first):
        # add hands one gradient array to p and q; p then takes a second
        # contribution, which must not write into the array q holds
        p, q = tensor([1.0, 2.0]), tensor([3.0, 4.0])
        c = ad.Tensor([5.0, -7.0])
        both = ad.add(p, q)
        scaled = ad.mul(p, c)
        ad.backward(ad.tsum(ad.add(both, scaled) if shared_first else ad.add(scaled, both)))
        np.testing.assert_array_equal(q.grad, [1.0, 1.0])
        np.testing.assert_array_equal(p.grad, [6.0, -6.0])

    def test_gradient_tape_exposes_ordered_parameters(self):
        a, b = tensor([1.0]), tensor([2.0])
        tape = ad.GradientTape(ad.tsum(ad.mul(a, b)))
        tape.run()
        grads = tape.parameter_gradients()
        assert set(grads) == {a, b}
        np.testing.assert_array_equal(grads[a], [2.0])


def _gradcheck_cases():
    """One builder per primitive; each returns (loss closure, params)."""
    rng = np.random.default_rng(12)

    def rand(*shape):
        return tensor(rng.standard_normal(shape))

    def case_add():
        a, b = rand(3, 4), rand(4)
        c = ad.Tensor(rng.standard_normal((3, 4)))
        return lambda: ad.tsum(ad.mul(ad.add(a, b), c)), [a, b]

    def case_mul():
        a, b = rand(2, 3, 1), rand(3, 4)
        c = ad.Tensor(rng.standard_normal((2, 3, 4)))
        return lambda: ad.tsum(ad.mul(ad.mul(a, b), c)), [a, b]

    def case_matmul():
        a, b = rand(3, 4), rand(4, 2)
        c = ad.Tensor(rng.standard_normal((3, 2)))
        return lambda: ad.tsum(ad.mul(ad.matmul(a, b), c)), [a, b]

    def case_selu():
        a = rand(11)
        c = ad.Tensor(rng.standard_normal(11))
        return lambda: ad.tsum(ad.mul(ad.selu(a), c)), [a]

    def case_softplus():
        a = rand(11)
        c = ad.Tensor(rng.standard_normal(11))
        return lambda: ad.tsum(ad.mul(ad.softplus(a), c)), [a]

    def case_sigmoid():
        a = rand(7)
        c = ad.Tensor(rng.standard_normal(7))
        return lambda: ad.tsum(ad.mul(ad.sigmoid(a), c)), [a]

    def case_gather():
        table = rand(5, 3)
        idx = rng.integers(0, 5, size=8)
        c = ad.Tensor(rng.standard_normal((8, 3)))
        return lambda: ad.tsum(ad.mul(ad.take_rows(table, idx), c)), [table]

    def case_concat_reshape():
        a, b = rand(2, 3), rand(2, 2)
        c = ad.Tensor(rng.standard_normal(10))
        return lambda: ad.tsum(ad.mul(ad.reshape(ad.concat([a, b], axis=1), (10,)), c)), [a, b]

    def case_sum_axis():
        a = rand(3, 4)
        c = ad.Tensor(rng.standard_normal(4))
        return lambda: ad.tsum(ad.mul(ad.tsum(a, axis=0), c)), [a]

    builders = [
        case_add, case_mul, case_matmul, case_selu, case_softplus,
        case_sigmoid, case_gather,
        case_concat_reshape, case_sum_axis,
    ]
    out = []
    for i in range(50):
        out.append(builders[i % len(builders)]())
    return out


@pytest.mark.parametrize("case_idx", range(50))
def test_all_ops_match_finite_differences(case_idx):
    """Every primitive agrees with central differences on random inputs."""
    build, params = _gradcheck_cases()[case_idx]
    ad.backward(build())
    analytic = [p.grad for p in params]
    fd = fd_gradients(lambda: float(build().data), params)
    assert_grads_match(analytic, fd)


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        ad.Tensor([np.nan])
