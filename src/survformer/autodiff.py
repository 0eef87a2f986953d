"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray and remembers the operation that produced it,
so a scalar loss can be differentiated with one topological sweep
(``backward``). All arithmetic is 64-bit; gradient checks against central
finite differences at 1e-4 relative tolerance are not reliable in 32-bit.

The module defines no arithmetic on Tensors. Every operation on the tape
is one network block (the model's field embedding, encoder layers, shared
projection and task heads) or a batch's annealed loss, built on ``node``
with a closed-form vector-Jacobian product that returns one cotangent per
parent. The elementwise array functions here (SELU and its slope, softplus,
the logistic function) are what those ops compute with; each op reads an
activation's slope from the activation's output, which it keeps anyway.

Parameters are not on the tape. ``flat_parameters`` makes each one a view
of one flat data buffer and one flat gradient buffer, and the one op that
reads a parameter writes its whole gradient view on every sweep. Between
nodes a gradient is never written in place: a node's first gradient is
stored as handed over, and one array may be handed to several nodes. The
graph is rebuilt on every forward pass; only an optimizer changes parameter
data, between tapes. Values are not checked here.
"""

import numpy as np

# Self-normalizing ELU constants from Klambauer et al.
SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


class Tensor:
    """A node in the computation graph: value, gradient slot, provenance."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None

    def _accumulate(self, g):
        # The first write stores ``g`` itself and later ones allocate: a
        # backward may hand one array to several parents, so none is mutated.
        self.grad = g if self.grad is None else self.grad + g


def node(data, parents, backward_fn):
    """A tape node holding ``data``; ``backward_fn(g)`` receives the gradient
    of the loss with respect to ``data`` and returns one cotangent per
    parent, in ``parents``' order, for the sweep to accumulate."""
    out = Tensor(data)
    out._parents = tuple(parents)
    out._backward = backward_fn
    return out


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
        tensors.append(Tensor(d.reshape(np.shape(a))))
        tensors[-1].grad = g.reshape(np.shape(a))
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


# --- backward sweep -------------------------------------------------------


class GradientTape:
    """Topologically ordered record of the operations below one loss node.

    Construction walks the graph once; ``run`` resets the gradients of every
    reachable node and performs the reverse sweep, so repeated runs from the
    same forward state produce identical gradients. Parameters are not
    nodes: the ops write their gradient views.
    """

    def __init__(self, loss):
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self.loss = loss
        self.nodes = self._topo_order(loss)

    @staticmethod
    def _topo_order(root):
        """Depth-first post-order from ``root``, parents taken last first."""
        order = []
        visited = {root}
        stack = [(root, reversed(root._parents))]
        while stack:
            for parent in stack[-1][1]:
                if parent not in visited:
                    visited.add(parent)
                    stack.append((parent, reversed(parent._parents)))
                    break
            else:
                order.append(stack.pop()[0])
        return order

    def run(self):
        """Sweep gradients from the loss to every reachable node, adding each
        cotangent a backward returns to its parent's gradient in order."""
        for node in self.nodes:
            node.grad = None
        self.loss.grad = np.ones_like(self.loss.data)
        for node in reversed(self.nodes):
            if node._backward is not None:
                for parent, g in zip(node._parents, node._backward(node.grad)):
                    parent._accumulate(g)


def backward(loss):
    """Reverse-mode sweep from a scalar loss: every op below it writes the
    gradient views of its parameters, and every leaf Tensor below it gets
    ``.grad``."""
    GradientTape(loss).run()
