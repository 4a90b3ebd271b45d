"""Reference kernel that measures how fast the host runs right now.

The benchmark's host is a small virtual machine whose speed drifts by up to
a factor of two within seconds (one fit on fixed inputs took 87 to 188 ms
in one 30 s loop), and process CPU time drifts with it.  The kernel below is
a fixed piece of work with the same mix as casfit's hot paths: small
dense linear algebra, kernels over arrays of a few hundred to ten thousand
points, index sampling and Python-level loops.  It shares no code with
casfit, so no change to the package changes its cost.

The runner times the kernel between consecutive operations and reports an
operation's time scaled to the reference speed: its wall time multiplied by
``REFERENCE_MS`` over the mean kernel time just before and just after it.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time when a 2-vCPU host runs at full speed (numpy 2.4,
# one BLAS thread); scaled times are in milliseconds at that speed.
REFERENCE_MS = 3.0


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rng = rng
        self._small = rng.normal(size=(9, 10))
        self._medium = rng.normal(size=(500, 10))
        self._large = rng.normal(size=(10_000, 10))

    def run(self):
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        acc = 0.0
        vec = None
        for _ in range(60):
            _, vecs = np.linalg.eigh(self._small.T @ self._small)
            vec = vecs[:, 0]
            d = self._medium @ vec
            acc += float(np.exp(-d * d).sum())
            idx = self._rng.choice(500, size=9, replace=False)
            acc += sum(float(x) for x in self._medium[idx, 0])
        for _ in range(4):
            d = self._large @ vec
            acc += float(np.exp(-d * d).sum()) + float((self._large.T @ self._large)[0, 0])
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")
        return time.perf_counter() - start
