"""Adam update rule: bias correction, decoupled decay, statefulness."""

import numpy as np
import pytest

from survformer.autodiff import Tensor
from survformer.optim import Adam


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
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(5), requires_grad=True)
    opt = Adam([a, b])
    assert opt.m[0].shape == (3, 4) and opt.v[1].shape == (5,)


def test_descends_a_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        p.grad = 2.0 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 1e-2
