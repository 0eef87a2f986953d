"""The pace of the CPU the benchmark runs on, to factor out of stage times.

On a shared host the speed of one virtual CPU swings by up to half again
in phases of seconds, as other tenants load the same physical core; the
program's own run time swings with it. ``probe`` is a fixed piece of work
whose CPU time measures that pace: a Python loop, small-object allocation,
small-matrix numpy, numpy over arrays the size of the L2 and L3 caches, and
filling a new 2 MiB buffer, a mix like the program's own. It belongs to the
benchmark, so no change to the program changes it.

``pin`` puts this process, and so every child it starts afterwards, on one
CPU. While a stage child runs, ``Pacer.sample`` runs the probe on that same
CPU every ``INTERVAL_S``; the stage then reports
``wall * REFERENCE_S / mean probe time``, its wall time at the reference
pace. Beside a running stage the probe took 0.7 to 1.1 ms of CPU time on an
Intel Xeon at 2.1 GHz with 2 vCPUs, so ``REFERENCE_S`` is 1 ms and scaled
times there read close to wall times. The probe takes CPU time from the
stage, the same share in every run.
"""

import os
import time

import numpy as np

INTERVAL_S = 0.025
REFERENCE_S = 0.001

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((32, 32))
_L2 = _rng.standard_normal(16384)  # 128 KiB
_L3 = _rng.standard_normal(131072)  # 1 MiB


class _Node:
    __slots__ = ("value", "attrs")

    def __init__(self, value, attrs):
        self.value = value
        self.attrs = attrs


def _work():
    total = 0
    for i in range(1500):
        total += i * i
    nodes = []
    for i in range(300):
        node = _Node(i, {"k": i})
        nodes.append(node)
        node.attrs["k"] += node.value
    x = _SMALL
    for _ in range(8):
        x = np.tanh(x @ _SMALL * 0.01)
    y = _L2
    for _ in range(2):
        y = np.exp(y * 0.5) - y
    z = _L3 * 1.0
    np.add(z, _L3, out=z)
    fresh = np.empty(2 * _L3.size)
    fresh.fill(1.0)
    return total, len(nodes), x, y, z, fresh


def probe():
    """CPU seconds the probe took on this thread."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


def pin():
    """Run this process, and the children it starts, on one CPU; returns it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Pacer:
    """Probe times taken over one timed interval."""

    def __init__(self):
        self.times = []

    def sample(self):
        self.times.append(probe())

    def scale(self, wall):
        """``wall`` seconds at the reference pace."""
        return wall * REFERENCE_S * len(self.times) / sum(self.times)
