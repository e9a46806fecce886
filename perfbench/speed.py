"""Machine-speed probe: timings normalized to a reference CPU speed.

On a shared machine the speed of one CPU drifts by up to 2x over tens of
seconds as neighbours load it, which is longer than a run, so raw op times
of runs made minutes apart differ by 20-40% whatever the program does.
The probe measures that drift where the op runs: a timer signal interrupts
the benchmark every PERIOD_S and, in the same thread and so on the same
CPU, times a small fixed kernel with the resource profile of the workload
(one dense noisy-gate step for the matrix workloads, tuple building,
formatting and parsing for the circuit IR). A normalized op time
is the op's wall time, less the probe's own time, scaled by the reference
kernel time over the kernel's median time within WINDOW_S of the op. The
kernels are benchmark code, so a change to the program does not move them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.5

_RHO = np.random.default_rng(20060801).standard_normal((128, 128)) + 0j
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP_12 = [1, 0, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13]


def matrix_kernel() -> float:
    """One dense noisy-gate step at n = 7: embed, permute axes, conjugate, partial trace."""
    start = perf_counter()
    u = np.kron(_X, np.eye(64, dtype=complex)).reshape((2,) * 14).transpose(_SWAP_12).reshape(128, 128)
    rho = u @ _RHO @ u.conj().T
    np.einsum("abcdefgAbcdefg->aA", rho.reshape((2,) * 14))
    return perf_counter() - start


def python_kernel() -> float:
    """Tuple building, string formatting and parsing, as in the circuit IR."""
    start = perf_counter()
    rows = [(i, (i * 7) % 13, f"g{i}") for i in range(150)]
    text = " ".join(f"{a}({b})" for a, b, _ in rows)
    [tuple(int(x) for x in tok[:-1].split("(")) for tok in text.split()]
    {name: a for a, _, name in rows}
    return perf_counter() - start


# kernel and its median time on the machine where the baseline in README.md
# was recorded, so that normalized figures read close to raw ones there
KERNELS = {
    "matrix": (matrix_kernel, 1.0e-3),
    "python": (python_kernel, 3.8e-4),
}


def reference_scale(kind: str, repeats: int = 15) -> float:
    """Reference over the median of `repeats` kernel runs made now."""
    kernel, reference_s = KERNELS[kind]
    return reference_s / statistics.median(kernel() for _ in range(repeats))


class SpeedProbe:
    """Samples the kernel every PERIOD_S while entered (main thread only)."""

    def __init__(self, kind: str):
        self.kernel, self.reference_s = KERNELS[kind]
        self.times: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0  # seconds the samples took, to subtract from op times

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.costs.append(self.kernel())
        self.times.append(start)
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference kernel time over its median within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        costs = self.costs[lo:hi] or self.costs
        return self.reference_s / statistics.median(costs)
