"""Adam optimizer with bias correction and decoupled weight decay."""

import numpy as np


class Adam:
    """Standard Adam over one flat parameter buffer and its gradient buffer.

    Weight decay is decoupled: it shrinks parameters directly instead of
    being folded into the gradient, so decay acts even when the gradient
    is zero. ``step`` reads the gradient buffer ``grad``, updates the
    parameter buffer ``data`` in place and increments the internal step
    counter.

    ``data`` and ``grad`` are the buffers of ``autodiff.flat_parameters``,
    so a step is a few vector operations over every parameter at once. The
    moments ``m`` and ``v`` are flat in the same layout.
    """

    def __init__(self, data, grad, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.data = data
        self.grad = grad
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)

    def step(self):
        self.step_count += 1
        t = self.step_count
        # the per-element formula of the textbook update, evaluated in place
        x, g, m, v = self.data, self.grad, self.m, self.v
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
