"""Adam optimizer with bias correction and decoupled weight decay."""

import numpy as np


class Adam:
    """Standard Adam over a list of parameter tensors.

    Weight decay is decoupled: it shrinks parameters directly instead of
    being folded into the gradient, so decay acts even when the gradient
    is zero. ``step`` reads ``.grad`` from each parameter and increments
    the internal step counter.

    The optimizer owns its parameters' storage: construction copies them,
    in order, into one flat float64 buffer ``data`` and rebinds each
    ``.data`` to a view of it, so a step is a few vector operations over
    every parameter at once and ``data.copy()`` snapshots them all. A
    parameter whose ``.data`` is later rebound is no longer updated. The
    moments ``m`` and ``v`` are flat in the same layout.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.data = np.concatenate([p.data for p in self.params], axis=None)
        offset = 0
        for p in self.params:
            p.data = self.data[offset : offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self):
        grads = []
        for p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros(p.data.size)
            elif g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            grads.append(g)
        g = np.concatenate(grads, axis=None)
        self.step_count += 1
        t = self.step_count
        # the per-element formula of the textbook update, evaluated in place
        x, m, v = self.data, self.m, self.v
        if self.weight_decay:
            x -= self.lr * self.weight_decay * x
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        g2 = (1.0 - self.beta2) * g
        g2 *= g
        v *= self.beta2
        v += g2
        step = m / (1.0 - self.beta1 ** t)
        step *= self.lr
        den = v / (1.0 - self.beta2 ** t)
        np.sqrt(den, out=den)
        den += self.eps
        step /= den
        x -= step

    def zero_grad(self):
        for p in self.params:
            p.grad = None
