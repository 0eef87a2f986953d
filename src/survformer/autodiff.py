"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray and remembers the operation that produced it,
so a scalar loss can be differentiated back to every parameter with one
topological sweep (``backward``). All arithmetic is 64-bit; gradient checks
against central finite differences at 1e-4 relative tolerance are not
reliable in 32-bit.

The graph is rebuilt on every forward pass and never reused across batches.
Tensors are immutable by convention: only an optimizer mutates ``.data`` of
parameters, and only between tapes.
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
        if not np.all(np.isfinite(arr)):
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return add(self, neg(_lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose_last(self):
        return transpose_last(self)

    def backward(self):
        backward(self)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


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


def neg(a):
    def back(g, a=a):
        if a.requires_grad:
            a._accumulate(-g)

    return node(-a.data, (a,), back)


def mul(a, b):
    def back(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return node(a.data * b.data, (a, b), back)


def matmul(a, b):
    """Matrix product; trailing two axes contract, leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs 2-d or higher operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    def back(g, a=a, b=b):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return node(np.matmul(a.data, b.data), (a, b), back)


def transpose_last(a):
    def back(g, a=a):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, -1, -2))

    return node(np.swapaxes(a.data, -1, -2), (a,), back)


def reshape(a, shape):
    old = a.data.shape

    def back(g, a=a, old=old):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return node(a.data.reshape(shape), (a,), back)


def concat(tensors, axis):
    tensors = [_lift(t) for t in tensors]
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


def tmean(a, axis=None):
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), Tensor(1.0 / count))


def log(a):
    if np.any(a.data <= 0):
        raise ValueError("log requires strictly positive input")

    def back(g, a=a):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return node(np.log(a.data), (a,), back)


def exp(a):
    out_data = np.exp(a.data)

    def back(g, a=a, out_data=out_data):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return node(out_data, (a,), back)


def relu(a):
    def back(g, a=a):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return node(np.maximum(a.data, 0.0), (a,), back)


def selu(a):
    """Scaled exponential linear unit, elementwise."""
    x = a.data
    neg_part = SELU_ALPHA * np.expm1(np.minimum(x, 0.0))
    out_data = SELU_LAMBDA * np.where(x > 0, x, neg_part)
    deriv = SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(x, 0.0)))

    def back(g, a=a, deriv=deriv):
        if a.requires_grad:
            a._accumulate(g * deriv)

    return node(out_data, (a,), back)


def softplus(a):
    """log(1 + exp(x)) with the overflow-safe split; strictly positive."""
    x = a.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = logistic(x)

    def back(g, a=a, sig=sig):
        if a.requires_grad:
            a._accumulate(g * sig)

    return node(out_data, (a,), back)


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


def softmax_rows(a):
    """Row-wise softmax of a 2-d tensor, stabilized by row-max subtraction."""
    if a.data.ndim != 2:
        raise DimensionError(f"softmax_rows expects a 2-d tensor, got {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def back(g, a=a, out_data=out_data):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=1, keepdims=True)
            a._accumulate(out_data * (g - dot))

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
        order = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
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
