"""Adam update rule: bias correction, decoupled decay, statefulness."""

import numpy as np

from survformer.autodiff import flat_parameters
from survformer.optim import Adam

from oracles import AdamReference


def one_parameter(values):
    """One parameter Tensor and the flat data and gradient buffers it views."""
    data, grad, (p,) = flat_parameters([np.array(values, dtype=np.float64)])
    return p, data, grad


def test_first_step_with_unit_gradient_moves_by_learning_rate():
    p, data, grad = one_parameter([0.5])
    opt = Adam(data, grad, lr=1e-3, eps=1e-8)
    p.grad[...] = 1.0
    opt.step()
    # bias-corrected moments are exactly 1 on the first step
    np.testing.assert_allclose(p.data, 0.5 - 1e-3 / (1.0 + 1e-8), rtol=1e-15)


def test_zero_gradient_no_decay_is_identity():
    p, data, grad = one_parameter([1.0, -2.0])
    opt = Adam(data, grad, lr=1e-2, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_decoupled_decay_shrinks_parameters_without_gradient():
    theta = np.array([2.0, -4.0])
    p, data, grad = one_parameter(theta)
    opt = Adam(data, grad, lr=1e-3, weight_decay=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, theta - 1e-3 * 0.1 * theta, rtol=1e-15)


def test_step_counter_strictly_increases():
    p, data, grad = one_parameter([0.0, 0.0])
    opt = Adam(data, grad)
    for expected in (1, 2, 3):
        p.grad[...] = 1.0
        opt.step()
        assert opt.step_count == expected


def test_moments_track_parameter_shapes():
    a, b = np.arange(12.0).reshape(3, 4), np.arange(5.0)
    data, grad, (ta, tb) = flat_parameters([a, b])
    opt = Adam(data, grad)
    # parameters keep their shapes and values as views of the flat buffers,
    # and the optimizer steps those buffers
    assert ta.data.shape == ta.grad.shape == (3, 4) and tb.data.shape == tb.grad.shape == (5,)
    np.testing.assert_array_equal(data, np.r_[a.ravel(), b])
    np.testing.assert_array_equal(grad, np.zeros(17))
    for t in (ta, tb):
        assert np.shares_memory(t.data, data) and np.shares_memory(t.grad, grad)
    assert opt.data is data and opt.grad is grad
    assert opt.m.shape == opt.v.shape == (17,)


def test_descends_a_quadratic():
    p, data, grad = one_parameter([5.0])
    opt = Adam(data, grad, lr=0.1)
    for _ in range(500):
        p.grad[...] = 2.0 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_flat_buffer_matches_per_tensor_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [(3, 4), (5,), (1, 1), (2, 3, 2), (7,)]
    arrays = [rng.standard_normal(s) for s in shapes]
    data, grad, params = flat_parameters(arrays)
    settings = dict(lr=3e-3, betas=(0.8, 0.95), eps=1e-7, weight_decay=0.05)
    reference = AdamReference(arrays, **settings)
    opt = Adam(data, grad, **settings)
    for _ in range(50):
        grads = [rng.standard_normal(s) * rng.uniform(0.01, 100.0) for s in shapes]
        grads[3] = np.zeros(shapes[3])  # a parameter the loss did not move
        for p, g in zip(params, grads):
            p.grad[...] = g
        opt.step()
        reference.step(grads)
        for p, want in zip(params, reference.x):
            assert p.data.shape == want.shape
            assert np.array_equal(p.data, want)
