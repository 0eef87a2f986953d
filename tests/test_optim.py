"""Adam update rule: bias correction, decoupled decay, statefulness."""

import numpy as np
import pytest

from survformer.autodiff import Tensor
from survformer.optim import Adam

from oracles import AdamReference


def test_first_step_with_unit_gradient_moves_by_learning_rate():
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([p], lr=1e-3, eps=1e-8)
    p.grad = np.array([1.0])
    opt.step()
    # bias-corrected moments are exactly 1 on the first step
    np.testing.assert_allclose(p.data, 0.5 - 1e-3 / (1.0 + 1e-8), rtol=1e-15)


def test_zero_gradient_no_decay_is_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=1e-2, weight_decay=0.0)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_decoupled_decay_shrinks_parameters_without_gradient():
    theta = np.array([2.0, -4.0])
    p = Tensor(theta.copy(), requires_grad=True)
    opt = Adam([p], lr=1e-3, weight_decay=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_allclose(p.data, theta - 1e-3 * 0.1 * theta, rtol=1e-15)


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(3)
    with pytest.raises(ValueError, match="shape"):
        opt.step()


def test_step_counter_strictly_increases():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    for expected in (1, 2, 3):
        p.grad = np.ones(2)
        opt.step()
        assert opt.step_count == expected


def test_moments_track_parameter_shapes():
    a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    b = Tensor(np.arange(5.0), requires_grad=True)
    opt = Adam([a, b])
    # parameters keep their shapes and values as views of one flat buffer
    assert a.data.shape == (3, 4) and b.data.shape == (5,)
    np.testing.assert_array_equal(opt.data, np.r_[np.arange(12.0), np.arange(5.0)])
    assert np.shares_memory(a.data, opt.data) and np.shares_memory(b.data, opt.data)
    assert opt.m.shape == opt.v.shape == (17,)


def test_descends_a_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        p.grad = 2.0 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_flat_buffer_matches_per_tensor_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (5,), (1, 1), (2, 3, 2), (7,)]
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    settings = dict(lr=3e-3, betas=(0.8, 0.95), eps=1e-7, weight_decay=0.05)
    reference = AdamReference([p.data for p in params], **settings)
    opt = Adam(params, **settings)
    for _ in range(50):
        grads = [rng.standard_normal(s) * rng.uniform(0.01, 100.0) for s in shapes]
        grads[3] = None  # a parameter the loss did not reach
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        reference.step(grads)
        for p, want in zip(params, reference.x):
            assert p.data.shape == want.shape
            assert np.array_equal(p.data, want)
