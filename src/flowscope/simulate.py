"""Post-selected statevector check that a flow schedule implements an isometry.

Input qubits start in an arbitrary basis state, all others in the plus
state; a controlled-Z acts across every edge; measured qubits are then
projected onto the plus state rotated by their angle in the equatorial
plane.  Keeping the projected branch for every outcome stands in for the
correction bookkeeping, so a valid flow must turn the surviving map from
the input subsystem to the output subsystem into a scaled isometry for
any choice of angles.

All input basis kets are simulated at once, and an input qubit is never
a qubit of the register: its bit is part of the column index.  The state
has one row per basis state of the non-input qubits and one column per
input ket, 2^n amplitudes in all.  Controlled-Z is diagonal, so every
edge's sign is set at once by one parity over the row and column bits.
Measuring an input multiplies the columns where its bit is 1 by a phase;
measuring any other qubit adds its two halves of the rows.  An input
that is also an output passes through untouched, so the map is block
diagonal over the bits of these *pass-through* inputs U: `LinearMap`
keeps only the compact amplitudes, builds the dense matrix on request,
and `isometry_defect` forms one Gram block per assignment of U.  A draw
costs 2^n amplitudes for the state plus 2^|U| * 2^|O-U| * 4^|I-U| for
the Gram blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from flowscope.flow import CausalFlow
from flowscope.geometry import Geometry

if TYPE_CHECKING:
    import numpy as np

DEFAULT_QUBIT_BOUND = 12


class SimulationBoundError(ValueError):
    """An instance exceeds the simulation's qubit cap."""


class ZeroMapError(ValueError):
    """Post-selection annihilated the state, which a valid flow rules out."""


@dataclass(frozen=True, eq=False)
class MeasurementPattern:
    """A geometry and flow plus one finite measurement angle per measured vertex."""

    geometry: Geometry
    flow: CausalFlow
    angles: Mapping[int, float]

    def __post_init__(self) -> None:
        angles = dict(self.angles)
        object.__setattr__(self, "angles", angles)
        if set(angles) != set(self.geometry.measured):
            raise ValueError("angles must be defined on exactly the measured vertices")
        for v, theta in sorted(angles.items()):
            if not math.isfinite(theta):
                label = self.geometry.label_of(v)
                raise ValueError(f"angle {theta} for vertex {label!r} is not finite")


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Complex matrix from the input subsystem to the output subsystem.

    Rows of ``matrix`` are indexed by the output qubits and columns by the
    input qubits, each in ascending vertex order, most significant bit
    first.  The map is held compactly: ``passthrough`` lists inputs that
    are also outputs and that the map leaves in place, and ``amplitudes``
    has rows over the other output qubits and columns over all inputs.
    An entry of ``matrix`` is the amplitude at its remaining output bits
    when its pass-through output bits equal the same qubits' input bits,
    and zero otherwise.  With no pass-through qubits the two coincide.
    """

    amplitudes: np.ndarray
    output_qubits: tuple[int, ...]
    input_qubits: tuple[int, ...]
    passthrough: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        import numpy as np

        through = set(self.passthrough)
        both = set(self.output_qubits) & set(self.input_qubits)
        if len(through) != len(self.passthrough) or not through <= both:
            raise ValueError("pass-through qubits must be distinct outputs that are also inputs")
        expected = (1 << (len(self.output_qubits) - len(through)), 1 << len(self.input_qubits))
        if self.amplitudes.shape != expected:
            raise ValueError(f"amplitude shape {self.amplitudes.shape} does not match {expected}")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("map contains non-finite entries")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense 2^|outputs| x 2^|inputs| matrix, built on first access."""
        import numpy as np

        outs, ins = self.output_qubits, self.input_qubits
        kept = [q for q in outs if q not in self.passthrough]
        rows = np.arange(self.amplitudes.shape[0])[:, None]
        cols = np.arange(self.amplitudes.shape[1])[None, :]
        # Each amplitude's dense row takes its kept bits from its compact
        # row and its pass-through bits from its column.
        dense_rows = np.zeros_like(rows)
        for q in outs:
            if q in kept:
                bit = rows >> (len(kept) - 1 - kept.index(q))
            else:
                bit = cols >> (len(ins) - 1 - ins.index(q))
            dense_rows = (dense_rows << 1) | (bit & 1)
        dense = np.zeros((1 << len(outs), 1 << len(ins)), dtype=self.amplitudes.dtype)
        dense[dense_rows, cols] = self.amplitudes
        return dense


def _basis_bits(width: int) -> np.ndarray:
    """Row i holds the bits of i over ``width`` qubits, most significant first."""
    import numpy as np

    return ((np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(float)


def _edge_parity(bits: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Per row of ``bits``, the number of edges of ``adjacency`` with both ends 1."""
    import numpy as np

    return np.sum((bits @ np.triu(adjacency)) * bits, axis=1)


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
    measured = list(geom.measured)
    order = list(schedule) if schedule is not None else measurement_order(pattern.flow)
    if sorted(order) != measured:
        raise ValueError("schedule must visit each measured vertex exactly once")

    inputs = sorted(geom.inputs)
    live = [q for q in range(n) if q not in geom.inputs]
    r = len(live)
    register = live + inputs
    adjacency = np.zeros((n, n))
    for u, v in geom.graph.edges():
        adjacency[u, v] = adjacency[v, u] = 1.0
    adjacency = adjacency[np.ix_(register, register)]
    # The CZ sign of basis state (row, col) is the parity of the edges
    # with both ends 1: those among the row bits, those among the column
    # bits, and the bilinear row-column term.
    row_bits, col_bits = _basis_bits(r), _basis_bits(len(inputs))
    parity = (
        _edge_parity(row_bits, adjacency[:r, :r])[:, None]
        + _edge_parity(col_bits, adjacency[r:, r:])[None, :]
        + row_bits @ adjacency[:r, r:] @ col_bits.T
    )

    # Measuring input q keeps only the branch where q's bit is its column
    # bit: a phase on the columns where that bit is 1, and 1/sqrt(2).
    phase = np.array([pattern.angles.get(q, 0.0) for q in inputs])
    scale = 2.0 ** (-0.5 * (r + sum(q in pattern.angles for q in inputs)))
    sign = np.where(parity.astype(np.int64) & 1, -scale, scale)
    state = sign * np.exp(-1j * (col_bits @ phase))[None, :]

    cols = state.shape[1]
    for q in order:
        if q in geom.inputs:
            continue
        t = live.index(q)
        blocks = state.reshape(1 << t, 2, 1 << (len(live) - 1 - t), cols)
        state = (blocks[:, 0] + np.exp(-1j * pattern.angles[q]) * blocks[:, 1]) / math.sqrt(2.0)
        state = state.reshape(1 << (len(live) - 1), cols)
        live.pop(t)

    outputs = tuple(sorted(geom.outputs))
    through = tuple(q for q in inputs if q in geom.outputs)
    return LinearMap(state, outputs, tuple(inputs), through)


def isometry_defect(v: LinearMap) -> float:
    """Max-norm distance of the trace-normalized Gram matrix from identity.

    Zero exactly when the map is a positive multiple of an isometry.  A
    zero map has no Gram direction at all and raises ZeroMapError.  The
    Gram matrix is block diagonal over the pass-through bits, and both it
    and the identity vanish off those blocks, so only the blocks are formed.
    """
    import numpy as np

    amps = v.amplitudes
    if not np.any(amps):
        raise ZeroMapError("map is identically zero")
    ins = v.input_qubits
    through = [ins.index(q) for q in v.passthrough]
    rest = [j for j in range(len(ins)) if j not in through]
    blocks = amps.reshape((amps.shape[0],) + (2,) * len(ins))
    blocks = blocks.transpose([0] + [1 + j for j in through + rest])
    blocks = blocks.reshape(amps.shape[0], 1 << len(through), 1 << len(rest))
    gram = np.einsum("rua,rub->uab", blocks.conj(), blocks)
    scale = (1 << len(ins)) / np.trace(gram, axis1=1, axis2=2).sum().real
    return float(np.max(np.abs(gram * scale - np.eye(1 << len(rest)))))
