"""Reference loop: fixed matrix work, timed beside every sample.

The benchmark's host is a shared virtual machine whose speed switches
between a fast and a slow state, 1.5x to 1.9x apart, every 50 to 500 ms,
and the share of each drifts over minutes.  A sample's raw time measures
that state as much as the program.  So each sample is bracketed by
timings of this loop, and its time at the reference speed is its raw time
over the mean of those timings, times the loop's nominal time
(``NOMINAL_MS``).  On each side the loop runs at least once and for at
least ``SHARE`` of the sample's time, so that a long sample is set against
the host's state over a stretch of time rather than at one instant.

The loop is 16 products ``A r A^H`` of fixed complex d x d matrices with a
Python loop around them, the shape of a Kraus sandwich.  At small d it is
interpreter-bound, at d = 64 BLAS-bound, like the program's own work at
those dims, so the two slow down together.  Each workload says at which
dim each of its dims is set against the loop (``reference_dim``).

The loop uses only the benchmark's own matrices and numpy's ``@``, which
the traced run does not wrap, so no change to ``statepool`` changes it.
"""

from __future__ import annotations

import time

import numpy as np

PRODUCTS = 16
SHARE = 0.05
# The loop's time at each dim, in ms, on the machine the baseline was
# measured on (2-vCPU Xeon KVM guest, numpy 2.4.6, OpenBLAS 0.3.31 on one
# thread): the 5th percentile of 2000 back-to-back timings per dim.  Only
# the scale of the results depends on these values.
NOMINAL_MS = {2: 0.126, 8: 0.135, 16: 0.198, 32: 0.472, 64: 2.04}


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20191908)
        self.mats = {d: rng.standard_normal((PRODUCTS, d, d))
                     + 1j * rng.standard_normal((PRODUCTS, d, d)) for d in NOMINAL_MS}

    def run(self, dim: int) -> None:
        mats = self.mats[dim]
        r = mats[0]
        for k in range(PRODUCTS):
            r = mats[k] @ r @ mats[k].conj().T
            r /= np.abs(r).max()

    def time_ms(self, dim: int) -> float:
        t0 = time.perf_counter_ns()
        self.run(dim)
        return (time.perf_counter_ns() - t0) / 1e6

    def mean_ms(self, dim: int, budget_ms: float) -> float:
        """Mean of timings at ``dim`` repeated until they add up to ``budget_ms``, at least one.

        An untimed run comes first: right after the program, the loop's
        first run reads 4% to 25% slow while its matrices come back into
        cache, and that share would depend on how many timings follow.
        """
        self.run(dim)
        total = self.time_ms(dim)
        n = 1
        while total < budget_ms:
            total += self.time_ms(dim)
            n += 1
        return total / n

    def scale(self, dim: int, before_ms: float, after_ms: float) -> float:
        """Factor that turns a raw time into ms at the nominal speed."""
        return 2 * NOMINAL_MS[dim] / (before_ms + after_ms)
