"""The host's speed, read from reference kernels timed between ops.

The benchmark runs on a shared host whose speed drifts by tens of percent
over seconds to minutes, in the ops and in any fixed piece of code alike.
A reference kernel is a fixed piece of work of the kind a workload does
(interpreter-bound Python, or small complex numpy arrays) that calls
nothing of the package, so a change to the package does not change it.
The runner times it every SAMPLE_EVERY_S seconds between ops, and scales
each time it measures by the kernel's nominal time over the mean kernel
time of the few samples just before and just after it: corrected times read
as if the host always ran the kernel in its nominal time.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from typing import Callable

SAMPLE_EVERY_S = 0.1
REPEATS = 2
NEIGHBOURS = 3

PYTHON_ITERATIONS = 1_200
PYTHON_VERTICES = 1_000
NUMPY_ROWS = 1 << 10
NUMPY_COLS = 1 << 4


def _python_data() -> tuple[list[list[int]], list[tuple[float, int, str]]]:
    rng = random.Random(0)
    adjacency: list[list[int]] = [[] for _ in range(PYTHON_VERTICES)]
    for _ in range(3 * PYTHON_VERTICES):
        u, v = rng.randrange(PYTHON_VERTICES), rng.randrange(PYTHON_VERTICES)
        adjacency[u].append(v)
        adjacency[v].append(u)
    records = [(rng.random(), i, str(i)) for i in range(PYTHON_VERTICES)]
    return adjacency, records


PYTHON_ADJACENCY, PYTHON_RECORDS = _python_data()


def python_kernel() -> int:
    """Dict, int and str operations; a graph search; grouping and sorting tuples."""
    table: dict[int, int] = {}
    total = 0
    for i in range(PYTHON_ITERATIONS):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += len(str(i))

    seen = [False] * PYTHON_VERTICES
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        total += 1
        for v in PYTHON_ADJACENCY[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)

    groups: dict[str, list[tuple[int, float]]] = {}
    for weight, i, text in PYTHON_RECORDS:
        groups.setdefault(text[-1], []).append((i, weight))
    return total + len(groups) + sorted(PYTHON_RECORDS)[0][1]


def numpy_kernel() -> float:
    """Masked sign flips, pairwise block sums and a Gram matrix on complex arrays.

    numpy is imported on the first call, which the runner makes only
    after set-up has imported it.
    """
    import numpy as np

    state = np.full((NUMPY_ROWS, NUMPY_COLS), 0.5, dtype=complex)
    rows = np.arange(NUMPY_ROWS)
    for q in range(10):
        state[(rows >> q) & 1 == 1, :] *= -1.0
    for step in range(6):
        blocks = state.reshape(1 << (step % 3), 2, -1, NUMPY_COLS)
        state = ((blocks[:, 0] + np.exp(-0.3j) * blocks[:, 1]) / math.sqrt(2.0)).reshape(-1, NUMPY_COLS)
    gram = state.conj().T @ state
    return float(abs(gram).max())


# Kernel and its nominal time per kind: its typical time on a 2-core
# x86-64 container running Python 3.11 and numpy 2.4.
KERNELS: dict[str, tuple[Callable[[], object], float]] = {
    "python": (python_kernel, 0.001),
    "numpy": (numpy_kernel, 0.0006),
}


class HostSpeed:
    """Kernel samples over a run, and the scale factor they give a time."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, self.nominal_s = KERNELS[kind]
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        self.at.append(time.perf_counter())
        self.kernel_s.append(best)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured from ``start`` to ``end``.

        Uses the NEIGHBOURS samples taken last before ``start`` and the
        NEIGHBOURS taken first after ``end``; there must be at least one.
        """
        before = bisect.bisect_right(self.at, start)
        after = bisect.bisect_left(self.at, end)
        around = self.kernel_s[max(before - NEIGHBOURS, 0) : before] + self.kernel_s[after : after + NEIGHBOURS]
        return self.nominal_s * len(around) / sum(around)

    def summary(self) -> str:
        kernel_ms = sorted(t * 1e3 for t in self.kernel_s)
        median = kernel_ms[len(kernel_ms) // 2]
        return (
            f"host speed: {self.kind} kernel median {median:.4g} ms "
            f"(range {kernel_ms[0]:.4g}-{kernel_ms[-1]:.4g}, {len(kernel_ms)} samples); "
            f"times scaled to {self.nominal_s * 1e3:g} ms"
        )
