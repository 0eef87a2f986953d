"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray and remembers the operation that produced it,
so a scalar loss can be differentiated back to every parameter with one
topological sweep (``backward``). All arithmetic is 64-bit; gradient checks
against central finite differences at 1e-4 relative tolerance are not
reliable in 32-bit.

Operations are module functions over Tensors; ``Tensor`` itself carries no
operator sugar. ``matmul`` multiplies 2-d operands only, so callers flatten
leading axes first. A fused operation with a closed-form vector-Jacobian
product is built on ``node``; the model's encoder layers and task heads and
the training losses are each one such op.

The graph is rebuilt on every forward pass and never reused across batches.
Tensors are immutable by convention: only an optimizer mutates ``.data`` of
parameters, and only between tapes. Gradient arrays are never written in
place either: a node's first gradient is stored as handed over, and one
array may be handed to several nodes.
"""

import numpy as np

# Self-normalizing ELU constants from Klambauer et al.
SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A node in the computation graph: value, gradient slot, provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        # The first write stores ``g`` itself and later ones allocate: a
        # backward may hand one array to several parents, so none is mutated.
        self.grad = g if self.grad is None else self.grad + g


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def node(data, parents, backward_fn):
    """A tape node holding ``data``; ``backward_fn(g)`` receives the gradient
    of the loss with respect to ``data`` and accumulates into ``parents``."""
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


# --- primitive operations ------------------------------------------------


def add(a, b):
    def back(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return node(a.data + b.data, (a, b), back)


def mul(a, b):
    def back(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return node(a.data * b.data, (a, b), back)


def matmul(a, b):
    """Product of two 2-d tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    def back(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return node(a.data @ b.data, (a, b), back)


def reshape(a, shape):
    old = a.data.shape

    def back(g, a=a, old=old):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return node(a.data.reshape(shape), (a,), back)


def concat(tensors, axis):
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g, tensors=tensors, splits=splits, axis=axis):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return node(np.concatenate([t.data for t in tensors], axis=axis), tensors, back)


def take_rows(table, indices):
    """Row gather from a 2-d table; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2:
        raise DimensionError(f"take_rows expects a 2-d table, got {table.data.shape}")

    def back(g, table=table, idx=idx):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx, g)
            table._accumulate(acc)

    return node(table.data[idx], (table,), back)


def tsum(a, axis=None):
    def back(g, a=a, axis=axis):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return node(a.data.sum(axis=axis), (a,), back)


def selu_array(x):
    """Scaled exponential linear unit of an array, elementwise."""
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))


def selu_slope(x):
    """Derivative of ``selu_array`` at the pre-activation ``x``."""
    return SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(x, 0.0)))


def selu(a):
    """Scaled exponential linear unit, elementwise; the slope is computed in
    backward only, so a forward that is never differentiated skips it."""

    def back(g, a=a):
        if a.requires_grad:
            a._accumulate(g * selu_slope(a.data))

    return node(selu_array(a.data), (a,), back)


def softplus(a):
    """log(1 + exp(x)) with the overflow-safe split; strictly positive."""
    x = a.data

    def back(g, a=a):
        if a.requires_grad:
            a._accumulate(g * logistic(a.data))

    return node(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), (a,), back)


def logistic(x):
    """Elementwise 1 / (1 + exp(-x)) of an array, without overflow."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    out_data = logistic(a.data)

    def back(g, a=a, out_data=out_data):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return node(out_data, (a,), back)


# --- backward sweep -------------------------------------------------------


class GradientTape:
    """Topologically ordered record of the operations below one loss node.

    Construction walks the graph once; ``run`` resets the gradients of every
    reachable node and performs the reverse sweep, so repeated runs from the
    same forward state produce identical gradients.
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
        """Sweep gradients from the loss to every reachable node."""
        for node in self.nodes:
            node.grad = None
        self.loss.grad = np.ones_like(self.loss.data)
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def parameter_gradients(self):
        """Leaf tensors that require gradients, mapped to their gradients."""
        out = {}
        for node in self.nodes:
            if node.requires_grad and node._backward is None:
                out[node] = node.grad
        return out


def backward(loss):
    """Reverse-mode sweep from a scalar loss; fills ``.grad`` on every
    parameter reachable from it and returns the parameter-to-gradient map."""
    tape = GradientTape(loss)
    tape.run()
    return tape.parameter_gradients()
