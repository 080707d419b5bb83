"""The machine's speed, measured between points, and times scaled to a fixed reference speed.

On a shared VM the neighbours' load changes how fast this process runs
by 20-40% over seconds to minutes, and every part of the work slows
together: interpreter loops, small LAPACK calls and memory-bound numpy
alike.  A run sees whatever states the machine passes through, so
wall-clock throughput spreads between runs of the same code by more
than any bound the benchmark may set.

``Pace`` runs a fixed reference kernel (no entclone code) every half
second of work, between points, and scales each point's time by
``REF_KERNEL_S`` over the kernel times measured just before and after
it.  A scaled time is the time the point would take on a machine that
runs the kernel in exactly ``REF_KERNEL_S``.  A slower program still
reads slower, by the same factor; a slower machine does not.  The
kernel's own time is outside every point's time.  ``run.py`` scales
``setup_s`` by kernel times as well.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time that defines the reference speed: a round figure a little
# under the kernel's ~12 ms median on the 2-vCPU VM the bounds were set on.
REF_KERNEL_S = 0.010
# Work between two kernel runs.
EVERY_S = 0.5

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_H = _H + _H.conj().T
_A = _rng.standard_normal((16, 16, 16))
_G = _rng.standard_normal((48, 8192))


def _kernel_once() -> float:
    """~12 ms of the kinds of work entclone does: Python loops, small LAPACK, einsum, RNG, and a
    matrix product large enough for BLAS to use its threads, as the solver's Hessian does."""
    began = time.perf_counter()
    acc = 0
    for i in range(45_000):
        acc += i * i
    for _ in range(14):
        np.linalg.eigvalsh(_H)
    for _ in range(24):
        np.einsum("ijk,kjl->il", _A, _A)
    (np.random.default_rng(acc % 7).random(150_000) < 0.3).sum()
    for _ in range(3):
        _G @ _G.T
    return time.perf_counter() - began


def kernel_s() -> float:
    """The faster of two kernel runs, so a single interrupt does not count."""
    return min(_kernel_once(), _kernel_once())


class Pace:
    """Collects point times in segments of about ``EVERY_S``, each closed by a kernel run."""

    def __init__(self) -> None:
        self.kernel_total_s = 0.0
        self.scaled_s: list[float] = []
        self.kernels_s: list[float] = []
        self._open: list[float] = []
        self._before = self._measure()

    def _measure(self) -> float:
        began = time.perf_counter()
        k = kernel_s()
        self.kernel_total_s += time.perf_counter() - began
        self.kernels_s.append(k)
        return k

    def add(self, seconds: float) -> None:
        """One point's wall time; between points, run the kernel once enough work has gone by."""
        self._open.append(seconds)
        if sum(self._open) >= EVERY_S:
            self.close()

    def close(self) -> None:
        """End the open segment with a kernel run; call once more after the last point."""
        if not self._open:
            return
        after = self._measure()
        factor = REF_KERNEL_S * 2.0 / (self._before + after)
        self.scaled_s.extend(s * factor for s in self._open)
        self._open, self._before = [], after
