"""Post-selected statevector check that a flow implements an isometry.

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
Once every CZ has acted, the projections act on distinct qubits and
commute, so no measurement order enters the map: measuring an input is a
phase on the columns where its bit is 1, and the measured non-input
qubits are summed out together, one signed sum over their row bits.  An
input that is also an output passes through untouched, so the map is
block diagonal over the bits of these *pass-through* inputs U:
`LinearMap` keeps only the compact amplitudes, builds the dense matrix on
request, and `isometry_defect` forms one Gram block per assignment of U.
A draw costs 2^n amplitudes for the state plus 2^|U| * 2^|O-U| * 4^|I-U|
for the Gram blocks, and a fixed number of numpy calls whatever the
number of edges: one indexed store writes every edge into the CZ sign
table.  The 0/1 basis-bit tables are built once per width and shared
read-only across draws, and Gram blocks of at least 4 x 4 go through
BLAS.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from flowscope.flow import CausalFlow, _check_flow
from flowscope.geometry import Geometry, _first_bad, _Record

if TYPE_CHECKING:
    import numpy as np

DEFAULT_QUBIT_BOUND = 12


class SimulationBoundError(ValueError):
    """An instance exceeds the simulation's qubit cap."""


class ZeroMapError(ValueError):
    """Post-selection annihilated the state, which a valid flow rules out."""


class MeasurementPattern(_Record):
    """A geometry and flow plus one finite measurement angle per measured vertex.

    Instances are equal only to themselves.
    """

    _fields = ("geometry", "flow", "angles")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, geometry: Geometry, flow: CausalFlow, angles: Mapping[int, float]) -> None:
        d = self.__dict__
        d["geometry"] = geometry
        d["flow"] = flow
        angles = d["angles"] = dict(angles)
        measured = set(geometry.measured)
        # A bool or float key equal to a measured id passes the set test alone.
        if angles.keys() != measured or _first_bad(angles.keys(), geometry.vertex_count) is not None:
            label_of = geometry.label_of
            missing = [v for v in geometry.measured if v not in angles]
            if missing:
                raise ValueError(f"missing angle for measured vertex {label_of(missing[0])!r}")
            extra = next(v for v in angles if v not in measured or type(v) is not int)
            raise ValueError(f"angle given for unmeasured vertex {label_of(extra)!r}")
        if not all(map(math.isfinite, angles.values())):
            v, theta = next((v, theta) for v, theta in sorted(angles.items()) if not math.isfinite(theta))
            raise ValueError(f"angle {theta} for vertex {geometry.label_of(v)!r} is not finite")


class LinearMap(_Record):
    """Complex matrix from the input subsystem to the output subsystem.

    Rows of ``matrix`` are indexed by the output qubits and columns by the
    input qubits, each in ascending vertex order, most significant bit
    first.  The map is held compactly.  Every input that is also an
    output passes through in place; the constructor lists these qubits,
    in input order, as ``passthrough``.  ``amplitudes`` has rows over the
    other output qubits and columns over all inputs.  An entry of
    ``matrix`` is the amplitude at its remaining output bits when its
    pass-through output bits equal the same qubits' input bits, and zero
    otherwise.  With no pass-through qubits the two coincide.  Instances
    are equal only to themselves.
    """

    _fields = ("amplitudes", "output_qubits", "input_qubits")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, amplitudes: np.ndarray, output_qubits: tuple[int, ...], input_qubits: tuple[int, ...]) -> None:
        import numpy as np

        d = self.__dict__
        d["amplitudes"] = amplitudes
        d["output_qubits"] = output_qubits
        d["input_qubits"] = input_qubits
        through = d["passthrough"] = tuple(q for q in input_qubits if q in output_qubits)
        expected = (1 << (len(output_qubits) - len(through)), 1 << len(input_qubits))
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


@cache
def _basis_bits(width: int) -> np.ndarray:
    """Row i holds the bits of i over ``width`` qubits, most significant first.

    Built once per width and shared read-only by every draw.  The cache
    holds at most one table per width in use, 2^width * width * 8 bytes
    each: 393 KB at the 12-qubit cap, under 0.8 MB for all widths to it.
    """
    import numpy as np

    bits = ((np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def measurement_order(flow: CausalFlow) -> list[int]:
    """Measured vertices by ascending rank, ties broken by vertex id.

    Depends only on the flow; any topological order of the influencing
    digraph restricted to the measured vertices would do.
    """
    # The measured vertices, where f is defined, ascend and sorting is
    # stable, so equal ranks keep id order.
    measured = [x for x, fx in enumerate(flow.successor.image) if fx >= 0]
    return sorted(measured, key=flow.order_rank.__getitem__)


def draw_angles(vertices: Sequence[int], rng: np.random.Generator) -> dict[int, float]:
    """One uniform angle in [0, 2*pi) per vertex, assigned in ascending order."""
    ordered = sorted(vertices)
    return dict(zip(ordered, rng.uniform(0.0, 2.0 * math.pi, len(ordered))))


def simulate_postselected(pattern: MeasurementPattern, *, max_qubits: int = DEFAULT_QUBIT_BOUND) -> LinearMap:
    """Post-selected statevector simulation of a measurement pattern.

    Simulates all input basis states at once: column c of the result is
    the surviving state for input basis ket c.  The rows hold the measured
    non-input qubits first and then the other outputs, each ascending, so
    projecting every measured qubit is one product of a weight per
    measured bit string with the state; the flow's order does not enter.
    Of the flow only its shape is checked, as ``verify_flow`` checks it
    (FlowDomainError), and nothing else is read; the returned ``LinearMap``
    works out its pass-through qubits itself.
    """
    import numpy as np

    geom = pattern.geometry
    _check_flow(geom, pattern.flow)
    n = geom.vertex_count
    if n > max_qubits:
        raise SimulationBoundError(f"instance has {n} qubits; simulation bound is {max_qubits}")

    inputs = sorted(geom.inputs)
    measured = [q for q in geom.measured if q not in geom.inputs]
    kept = sorted(geom.outputs - geom.inputs)
    r = len(measured) + len(kept)
    # The CZ sign of basis state (row, col) is the parity of the edges
    # with both ends 1: among the row bits, among the column bits, and
    # across.  `upper` holds each edge once, at (earlier, later) register
    # position; row qubits come first, so no row-column edge is lost.
    # Every adjacency list names each edge from both ends; the end with
    # the earlier position keeps it, and one indexed store writes them all.
    pos = [0] * n
    for i, q in enumerate(measured + kept + inputs):
        pos[q] = i
    lo: list[int] = []
    hi: list[int] = []
    for u, nbrs in enumerate(geom.graph.adjacency):
        p = pos[u]
        for v in nbrs:
            if p < pos[v]:
                lo.append(p)
                hi.append(pos[v])
    upper = np.zeros((n, n))
    upper[lo, hi] = 1.0
    row_bits, col_bits = _basis_bits(r), _basis_bits(len(inputs))
    parity = (
        np.einsum("ij,ij->i", row_bits @ upper[:r, :r], row_bits)[:, None]
        + np.einsum("ij,ij->i", col_bits @ upper[r:, r:], col_bits)[None, :]
        + row_bits @ upper[:r, r:] @ col_bits.T
    )

    # Projecting q onto its rotated plus state keeps the branch where q's
    # bit b has weight exp(-i * b * angle) / sqrt(2).  For an input, b is
    # its column bit: a phase on the columns.  The other measured bits are
    # the leading row bits, summed out at once with the product weight.
    phase = np.array([pattern.angles.get(q, 0.0) for q in inputs])
    scale = 2.0 ** (-0.5 * (r + len(pattern.angles)))
    sign = np.where(parity.astype(np.int64) & 1, -scale, scale)
    state = sign * np.exp(-1j * (col_bits @ phase))[None, :]
    weight = np.exp(-1j * (_basis_bits(len(measured)) @ [pattern.angles[q] for q in measured]))
    state = (weight @ state.reshape(len(weight), -1)).reshape(1 << len(kept), -1)

    return LinearMap(state, tuple(sorted(geom.outputs)), tuple(inputs))


def isometry_defect(v: LinearMap) -> float:
    """Max-norm distance of the trace-normalized Gram matrix from identity.

    Zero exactly when the map is a positive multiple of an isometry.  A
    zero map has no Gram direction at all and raises ZeroMapError.  The
    Gram matrix is block diagonal over the pass-through bits, and both it
    and the identity vanish off those blocks, so only the blocks are formed:
    by batched ``matmul`` (BLAS) when they are at least 4 x 4, by
    ``einsum`` when they are 1 x 1 or 2 x 2.
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
    side = 1 << len(rest)
    blocks = blocks.reshape(amps.shape[0], 1 << len(through), side)
    if side >= 4:
        # Batched matmul runs each block on BLAS.  On the block shapes of
        # the simulate-sweep workload it ties einsum at 4 x 4 and wins
        # 1.3-14x from 8 x 8 on; on 2 x 2 blocks its per-block call makes
        # it up to 4x slower.
        stacked = blocks.transpose(1, 0, 2)
        gram = stacked.conj().transpose(0, 2, 1) @ stacked
    else:
        gram = np.einsum("rua,rub->uab", blocks.conj(), blocks)
    scale = (1 << len(ins)) / np.trace(gram, axis1=1, axis2=2).sum().real
    return float(np.max(np.abs(gram * scale - np.eye(side))))
