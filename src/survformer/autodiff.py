"""Parameters, the loss node and the activations, in dense float64 numpy.

A ``Tensor`` is an array ``data`` beside its gradient ``grad``. The model's
parameters are Tensors viewing one flat data buffer and one flat gradient
buffer (``flat_parameters``); the one block that reads a parameter writes
its whole gradient view on every backward pass. A training batch's loss is
the only other Tensor: its ``backward`` hands the head outputs' cotangents
to the network's VJP, ``model.ForwardPass.backward``, and ``backward(loss)``
calls it once from a unit gradient. There is no graph to sweep; the
benchmark's tracer counts Tensors and tape nodes through these classes.
Gradient checks against finite differences at 1e-4 relative tolerance need
the 64-bit arithmetic.

Each elementwise function (SELU and its slope, softplus, the logistic
function) lets a block read an activation's slope from the activation's
output, which it keeps anyway. Values are not checked here.
"""

import numpy as np

# Self-normalizing ELU constants from Klambauer et al.
SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


class Tensor:
    """An array and its gradient. ``backward``, given for a loss, maps the
    loss's gradient onto whatever the loss was computed from."""

    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data, grad=None, backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = grad
        self._backward = backward


def flat_parameters(arrays):
    """Copy ``arrays``, in order, into one flat float64 buffer ``data`` beside
    a zeroed gradient buffer ``grad`` of the same layout. Returns ``(data,
    grad, tensors)``, with one Tensor per array whose ``.data`` and ``.grad``
    are views of the two buffers in the array's shape."""
    data = np.concatenate([np.asarray(a, dtype=np.float64) for a in arrays], axis=None)
    grad = np.zeros_like(data)
    ends = np.cumsum([np.size(a) for a in arrays])
    tensors = []
    for a, d, g in zip(arrays, np.split(data, ends[:-1]), np.split(grad, ends[:-1])):
        tensors.append(Tensor(d.reshape(np.shape(a)), g.reshape(np.shape(a))))
    return data, grad, tensors


# --- elementwise array functions ------------------------------------------


def selu_array(x):
    """Scaled exponential linear unit of an array, elementwise, as
    λ·(max(x, 0) + α·expm1(min(x, 0))); one of the two terms is zero. The
    result is written into ``x``, which must be a writable float array: numpy
    raises TypeError for an integer array or a list, ValueError for a read-only one."""
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    neg *= SELU_ALPHA
    out = np.maximum(x, 0.0, out=x)
    out += neg
    out *= SELU_LAMBDA
    return out


def selu_slope(y):
    """Derivative of ``selu_array`` read from its output ``y``: λ where y > 0
    (exactly where the pre-activation is), and λα·exp(x) = y + λα elsewhere.

    Computed without a per-element branch, as min(y, 0) + λα − [y > 0]·(λα − λ):
    λα − (λα − λ) rounds to λ exactly, so this is the select's value bit for
    bit. A masked select runs at the branch predictor's mercy on fresh data."""
    out = np.minimum(y, 0.0)
    out += SELU_LAMBDA * SELU_ALPHA
    out -= (y > 0) * (SELU_LAMBDA * SELU_ALPHA - SELU_LAMBDA)
    return out


def softplus_array(x):
    """log(1 + exp(x)) of an array with the overflow-safe split; strictly
    positive. Its derivative, ``logistic``, is -expm1(-y) at the output y."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def logistic(x):
    """Elementwise 1 / (1 + exp(-x)) of an array, without overflow."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# --- backward pass --------------------------------------------------------


class GradientTape:
    """The nodes of one backward pass: only its scalar loss, whose
    ``backward`` runs every VJP beneath it."""

    def __init__(self, loss):
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self.nodes = [loss]


def backward(loss):
    """Run a scalar loss's VJP once from a unit gradient. It writes the whole
    gradient view of every parameter below the loss, so repeated runs from
    one forward state write identical gradients."""
    GradientTape(loss)
    loss.grad = np.ones_like(loss.data)
    if loss._backward is not None:
        loss._backward(loss.grad)
