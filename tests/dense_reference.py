"""The original dense simulator, kept as the reference the compact one is tested against.

The state is a 2^n x 2^|I| array over every qubit and every input ket;
each input's row bit is tied to its column bit, each edge flips the sign
of the rows where both ends are 1, and every measurement, of an input or
not, sums the two halves of its qubit's rows.  The defect forms the full
2^|I| x 2^|I| Gram matrix.  Only usable at small n.
"""

from __future__ import annotations

import math
import numpy as np

from flowscope import MeasurementPattern, ZeroMapError, measurement_order


def dense_simulate(pattern: MeasurementPattern) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """The dense map with its output and input qubits, as ``simulate_postselected`` once built it."""
    geom = pattern.geometry
    n = geom.vertex_count
    inputs = sorted(geom.inputs)
    order = measurement_order(pattern.flow)

    n_in = len(inputs)
    cols = 1 << n_in
    rows = 1 << n
    state = np.full((rows, cols), 2.0 ** (-0.5 * (n - n_in)), dtype=complex)
    row_idx = np.arange(rows)
    col_idx = np.arange(cols)
    for j, q in enumerate(inputs):
        row_bit = (row_idx >> (n - 1 - q)) & 1
        col_bit = (col_idx >> (n_in - 1 - j)) & 1
        state[row_bit[:, None] != col_bit[None, :]] = 0.0
    for u, v in geom.graph.edges():
        both = ((row_idx >> (n - 1 - u)) & 1) & ((row_idx >> (n - 1 - v)) & 1)
        state[both == 1, :] *= -1.0

    live = list(range(n))
    for q in order:
        t = live.index(q)
        width = len(live)
        blocks = state.reshape(1 << t, 2, 1 << (width - 1 - t), cols)
        state = (blocks[:, 0] + np.exp(-1j * pattern.angles[q]) * blocks[:, 1]) / math.sqrt(2.0)
        state = state.reshape(1 << (width - 1), cols)
        live.pop(t)

    return state.reshape(1 << len(live), cols), tuple(live), tuple(inputs)


def dense_defect(m: np.ndarray) -> float:
    """Max-norm distance of the trace-normalized full Gram matrix from identity."""
    if not np.any(m):
        raise ZeroMapError("map is identically zero")
    gram = m.conj().T @ m
    dim = gram.shape[0]
    scale = dim / np.trace(gram).real
    return float(np.max(np.abs(gram * scale - np.eye(dim))))
