"""Machine-speed references for steady timings on a shared host.

On a shared or virtualised host the speed of a core drifts by tens of
percent within seconds, and CPU time drifts with wall time: the drift is
the core's speed, not descheduling.  A fixed numpy kernel that does not
touch decoupsim slows by nearly the same factor as the decoupsim work
beside it, provided it works at the same matrix size: at n_r = 64 a
small kernel tracked decoupler builds within about 2% while both drifted
by 60%; at n_r = 170 only a kernel of that size tracked them (about 5%
against 20% drift).

Timings are taken in groups bracketed by reference timings, and each
group is scaled by ``nominal / mean(reference before, reference after)``:
the figures read as wall times on a machine where the reference kernel
takes ``nominal`` seconds.  Raw wall times are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """A dense SVD at a workload's receiver dimension plus an interpreter-bound loop."""

    def __init__(self, n_r: int, nominal_s: float, repeats: int) -> None:
        rng = np.random.default_rng(20240305)
        self.a = rng.standard_normal((n_r, n_r - 12)) + 1j * rng.standard_normal((n_r, n_r - 12))
        self.b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.nominal_s = nominal_s
        self.repeats = repeats

    def kernel(self) -> None:
        np.linalg.svd(self.a, full_matrices=True)
        for _ in range(50):
            np.linalg.solve(self.b, self.b[:, 0])

    def time(self) -> float:
        """Fastest of ``repeats`` kernels, in seconds (interrupts only add time)."""
        best = float("inf")
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def scale(self, before: float, after: float) -> float:
        return self.nominal_s / (0.5 * (before + after))


# Nominal times: fastest observed on an idle 2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31,
# one BLAS thread.
def small() -> Reference:
    """For the n_r = 64 workloads."""
    return Reference(64, 1.15e-3, repeats=3)


def large() -> Reference:
    """For the n_r = 170 workload."""
    return Reference(170, 11.0e-3, repeats=1)
