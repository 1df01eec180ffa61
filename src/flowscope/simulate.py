"""Dense statevector check that a flow schedule implements an isometry.

Input qubits start in an arbitrary basis state, all others in the plus
state; a controlled-Z acts across every edge; measured qubits are then
projected onto the plus state rotated by their angle in the equatorial
plane.  Keeping the projected branch for every outcome stands in for the
correction bookkeeping, so a valid flow must turn the surviving map from
the input subsystem to the output subsystem into a scaled isometry for
any choice of angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from flowscope.flow import CausalFlow
from flowscope.geometry import Geometry

if TYPE_CHECKING:
    import numpy as np

DEFAULT_QUBIT_BOUND = 12


class SimulationBoundError(ValueError):
    """An instance exceeds the dense simulation's qubit cap."""


class ZeroMapError(ValueError):
    """Post-selection annihilated the state, which a valid flow rules out."""


@dataclass(frozen=True, eq=False)
class MeasurementPattern:
    """A geometry and flow plus one measurement angle per measured vertex."""

    geometry: Geometry
    flow: CausalFlow
    angles: Mapping[int, float]

    def __post_init__(self) -> None:
        angles = dict(self.angles)
        object.__setattr__(self, "angles", angles)
        if set(angles) != set(self.geometry.measured):
            raise ValueError("angles must be defined on exactly the measured vertices")


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Complex matrix from the input subsystem to the output subsystem.

    Rows are indexed by the output qubits and columns by the input qubits,
    each in ascending vertex order, most significant bit first.
    """

    matrix: np.ndarray
    output_qubits: tuple[int, ...]
    input_qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        import numpy as np

        expected = (1 << len(self.output_qubits), 1 << len(self.input_qubits))
        if self.matrix.shape != expected:
            raise ValueError(f"matrix shape {self.matrix.shape} does not match {expected}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix contains non-finite entries")


def measurement_order(flow: CausalFlow) -> list[int]:
    """Measured vertices by ascending rank, ties broken by vertex id.

    Depends only on the flow; any topological order of the influencing
    digraph restricted to the measured vertices would do.
    """
    ranks = flow.order_rank
    return sorted(flow.successor.sources(), key=lambda v: (ranks[v], v))


def draw_angles(vertices: Sequence[int], rng: np.random.Generator) -> dict[int, float]:
    """One uniform angle in [0, 2*pi) per vertex, assigned in ascending order."""
    ordered = sorted(vertices)
    return dict(zip(ordered, rng.uniform(0.0, 2.0 * math.pi, len(ordered))))


def simulate_postselected(
    pattern: MeasurementPattern,
    *,
    schedule: Sequence[int] | None = None,
    max_qubits: int = DEFAULT_QUBIT_BOUND,
) -> LinearMap:
    """Post-selected statevector simulation of a measurement pattern.

    Simulates all input basis states at once: column c of the result is
    the surviving state for input basis ket c.  Measured qubits are
    projected and dropped immediately, so the live register only shrinks.
    ``schedule`` overrides the flow-derived measurement order; it must
    visit each measured vertex exactly once but is otherwise unchecked,
    which lets tests drive deliberately invalid orders.
    """
    import numpy as np

    geom = pattern.geometry
    n = geom.vertex_count
    if n > max_qubits:
        raise SimulationBoundError(f"instance has {n} qubits; simulation bound is {max_qubits}")
    inputs = sorted(geom.inputs)
    measured = list(geom.measured)
    order = list(schedule) if schedule is not None else measurement_order(pattern.flow)
    if sorted(order) != measured:
        raise ValueError("schedule must visit each measured vertex exactly once")

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

    return LinearMap(state.reshape(1 << len(live), cols), tuple(live), tuple(inputs))


def isometry_defect(v: LinearMap) -> float:
    """Max-norm distance of the trace-normalized Gram matrix from identity.

    Zero exactly when the map is a positive multiple of an isometry.  A
    zero map has no Gram direction at all and raises ZeroMapError.
    """
    import numpy as np

    m = v.matrix
    if not np.any(m):
        raise ZeroMapError("map is identically zero")
    gram = m.conj().T @ m
    dim = gram.shape[0]
    scale = dim / np.trace(gram).real
    return float(np.max(np.abs(gram * scale - np.eye(dim))))
