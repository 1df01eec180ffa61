"""Seeded known-answer workloads for the flowscope benchmark.

Every op is one call chain into the package's public API, timed by the
runner, followed by an untimed check against an answer that does not
come from ``find_causal_flow``:

* flows come from the construction's own path cover, through
  ``flow_from_cover`` and ``verify_flow``;
* ``edge-bound`` answers come from m > gamma(n, k);
* the alternating 6-cycle has no flow (``brute_force_flow``), so neither
  has any disjoint union that contains it;
* random geometries with at most 10 vertices take their answer from
  ``brute_force_flow``.

Set-up checks each of these facts and raises ``SetupError`` if one fails.
``undecided`` is always a legal verdict of the search and is counted, not
failed.  Only API that the planned refactors keep is called:
``find_causal_flow(geom)`` takes no budget and the enumerator's internals
are never called directly.

A workload is a list of rounds; a round is a list of ops whose make-up is
fixed, and the seed only picks shapes, labels and sizes within it.  The
runner always measures whole rounds, so the mix of a run does not depend
on how many ops fit into it.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from flowscope import cli, extremal, flow, geometry, simulate
from flowscope.extremal import ExtremalPartition
from flowscope.flow import PathCover
from flowscope.geometry import Geometry, Graph

if TYPE_CHECKING:
    import numpy as np

DEFECT_TOLERANCE = 1e-9


class SetupError(RuntimeError):
    """A reference answer computed during set-up does not hold."""


class WrongAnswer(RuntimeError):
    """An op's output contradicts its known answer."""


@dataclass
class Op:
    """One timed call chain plus the untimed check of its output.

    ``check`` returns "ok" or "undecided" together with counts the traced
    run aggregates, and raises WrongAnswer on a wrong output.
    """

    kind: str
    edges: int
    run: Callable[[], object]
    check: Callable[[object], tuple[str, dict[str, int]]]


@dataclass
class Workload:
    rounds: list[list[Op]]
    warm_up: list[Op]
    cli_commands: list["CliCommand"] = field(default_factory=list)

    def round(self, index: int) -> list[Op]:
        return self.rounds[index % len(self.rounds)]


# -- geometry helpers ------------------------------------------------------


def shuffled_labels(geom: Geometry, rng: random.Random) -> Geometry:
    """Same geometry, vertex labels permuted at random.

    Loading a serialized geometry numbers vertices in sorted label order,
    so the permutation takes away the head start the generator's own id
    order gives a lexicographic search.
    """
    n = geom.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    width = len(str(max(n - 1, 0)))
    labels = tuple(f"u{perm[v]:0{width}d}" for v in range(n))
    return Geometry(geom.graph, geom.inputs, geom.outputs, labels)


def random_partition(n: int, k: int, rng: random.Random) -> ExtremalPartition:
    cuts = sorted(rng.sample(range(1, n), k - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return ExtremalPartition(tuple(sorted(parts)))


def grid(rows: int, cols: int) -> tuple[Geometry, PathCover]:
    """rows x cols grid; inputs the first column, outputs the last.

    Each row is a path of the cover: f moves one column right, and every
    influencing arc then ends in a later column, so the flow is valid.
    """
    def vid(i: int, j: int) -> int:
        return i * cols + j

    edges = [(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    geom = Geometry(
        Graph.from_edges(rows * cols, edges),
        frozenset(vid(i, 0) for i in range(rows)),
        frozenset(vid(i, cols - 1) for i in range(rows)),
        tuple(f"r{i}c{j}" for i in range(rows) for j in range(cols)),
    )
    cover = PathCover(tuple(tuple(vid(i, j) for j in range(cols)) for i in range(rows)))
    return geom, cover


def disjoint_union(parts: list[Geometry]) -> Geometry:
    edges: list[tuple[int, int]] = []
    inputs: set[int] = set()
    outputs: set[int] = set()
    offset = 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.graph.edges()]
        inputs |= {v + offset for v in part.inputs}
        outputs |= {v + offset for v in part.outputs}
        offset += part.vertex_count
    return Geometry(Graph.from_edges(offset, edges), frozenset(inputs), frozenset(outputs))


def with_extra_edge(geom: Geometry, rng: random.Random) -> Geometry:
    n = geom.vertex_count
    while True:
        u, v = rng.sample(range(n), 2)
        if v not in geom.graph.adjacency[u]:
            break
    graph = Graph.from_edges(n, [*geom.graph.edges(), (u, v)])
    return Geometry(graph, geom.inputs, geom.outputs, geom.labels)


def path_geometry(n: int) -> Geometry:
    return Geometry(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), {0}, {n - 1})


# Alternating 6-cycle a0-b0-a1-b1-a2-b2-a0, a side inputs, b side outputs:
# the canonical geometry without a causal flow (tests/conftest.py).
SIX_CYCLE = Geometry(
    Graph.from_edges(6, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]),
    {0, 1, 2},
    {3, 4, 5},
    ("a0", "a1", "a2", "b0", "b1", "b2"),
)

# 4-cycle with no inputs and two adjacent outputs: it has a flow and four
# saturating matchings, so s copies multiply the enumeration by 4**s.
SIDE_SQUARE = Geometry(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), (), {2, 3})


def cover_on(loaded: Geometry, source: Geometry, cover: PathCover) -> PathCover:
    """Carry a cover of ``source`` over to the same geometry re-read from text."""
    return PathCover(
        tuple(tuple(loaded.id_of(source.label_of(v)) for v in path) for path in cover.paths)
    )


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SetupError(message)


def reference_flow(geom: Geometry, cover: PathCover) -> flow.CausalFlow:
    """The construction cover's flow, checked by ``verify_flow``."""
    result = flow.flow_from_cover(geom, cover)
    require(result.status == "found", f"construction cover gives {result.status}")
    require(flow.verify_flow(geom, result.flow).ok, "construction flow does not verify")
    return result.flow


def partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-decreasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (*rest, part)


# -- search-mixed ----------------------------------------------------------

# One round of search-mixed; every round of the pool has this make-up.
# (k, n...) of the extremal geometries searched; each also appears with
# one extra edge, as an edge-bound case.
SEARCH_EXTREMAL = ((2, 60, 151, 200), (3, 50, 102, 150), (4, 40, 80, 120), (5, 30, 63, 100))
SEARCH_GRIDS = ((2, 30), (3, 25), (4, 20), (5, 16))
# Flow-bearing base joined to the 6-cycle and some side squares:
# (base, base size, side squares).  With three squares the seed's budget
# of 1000 matchings is enough to reach no-flow; with five or more it runs
# out (undecided).
SEARCH_GADGETS = (("path", 12, 3), ("path", 12, 5), ("grid", 24, 5), ("path", 20, 6))
# Random small geometries are four in five ops of a round, so the median
# op falls near their 62nd percentile, where their latencies are dense,
# rather than in a gap between two kinds of op.  The larger kinds still
# take most of a round's time and set the tail.
SEARCH_RANDOM = 128
SEARCH_RANDOM_VERTICES = (5, 10)
# Distinct rounds generated at set-up; runs cycle through them.
SEARCH_POOL = 10

TINY_SEARCH_EXTREMAL = ((2, 8, 12, 14), (5, 10, 15, 16))
TINY_SEARCH_GRIDS = ((2, 5),)
TINY_SEARCH_GADGETS = (("path", 8, 5),)
TINY_SEARCH_RANDOM = 4


def _search_op(kind: str, geom: Geometry, check) -> Op:
    text = geometry.serialize_geometry(geom)

    def run():
        loaded = geometry.load_geometry(text)
        return loaded, flow.find_causal_flow(loaded)

    return Op(kind, geom.graph.edge_count, run, check)


def _search_counts(result) -> dict[str, int]:
    """Verdict counts, plus matchings tried when the result still reports them."""
    decided = result.status in ("found", "no-flow")
    counts = {"search": 1, "decided": int(decided), "found": int(result.status == "found")}
    tried = getattr(result, "tried", None)
    if isinstance(tried, int):
        counts["tried"] = tried
        counts["tried_decided"] = tried if decided else 0
    return counts


def _expect_found(output) -> tuple[str, dict[str, int]]:
    loaded, result = output
    counts = _search_counts(result)
    if result.status == "undecided":
        return "undecided", counts
    if result.status != "found":
        raise WrongAnswer(f"expected found, got {result.status} ({result.reason})")
    check = flow.verify_flow(loaded, result.flow)
    if not check.ok:
        raise WrongAnswer(f"found flow fails verify_flow ({check.condition})")
    return "ok", counts


def _expect_no_flow(reason: str | None):
    def check(output) -> tuple[str, dict[str, int]]:
        _loaded, result = output
        counts = _search_counts(result)
        if result.status == "undecided":
            return "undecided", counts
        if result.status != "no-flow":
            raise WrongAnswer(f"expected no-flow, got {result.status}")
        if reason is not None and result.reason != reason:
            raise WrongAnswer(f"expected reason {reason}, got {result.reason}")
        return "ok", counts

    return check


def _random_small(rng: random.Random) -> Geometry:
    lo, hi = SEARCH_RANDOM_VERTICES
    n = rng.randint(lo, hi)
    density = rng.uniform(0.2, 0.45)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    inputs = rng.sample(range(n), rng.randint(0, 3))
    outputs = rng.sample(range(n), rng.randint(1, 4))
    return Geometry(Graph.from_edges(n, edges), frozenset(inputs), frozenset(outputs))




def _search_round(rng: random.Random, tiny: bool) -> list[Op]:
    extremal_sizes = TINY_SEARCH_EXTREMAL if tiny else SEARCH_EXTREMAL
    grid_sizes = TINY_SEARCH_GRIDS if tiny else SEARCH_GRIDS
    gadgets = TINY_SEARCH_GADGETS if tiny else SEARCH_GADGETS
    random_count = TINY_SEARCH_RANDOM if tiny else SEARCH_RANDOM

    ops: list[Op] = []
    for k, *sizes in extremal_sizes:
        for n in sizes:
            geom, cover = extremal.generate_extremal(random_partition(n, k, rng))
            shuffled = shuffled_labels(geom, rng)
            loaded = geometry.load_geometry(geometry.serialize_geometry(shuffled))
            reference_flow(loaded, cover_on(loaded, shuffled, cover))
            ops.append(_search_op("extremal", shuffled, _expect_found))
            bumped = shuffled_labels(with_extra_edge(geom, rng), rng)
            require(bumped.graph.edge_count > extremal.gamma(n, k), "extra edge does not exceed gamma")
            ops.append(_search_op("edge-bound", bumped, _expect_no_flow("edge-bound")))

    for rows, cols in grid_sizes:
        geom, cover = grid(rows, cols)
        shuffled = shuffled_labels(geom, rng)
        loaded = geometry.load_geometry(geometry.serialize_geometry(shuffled))
        reference_flow(loaded, cover_on(loaded, shuffled, cover))
        ops.append(_search_op("grid", shuffled, _expect_found))

    for base_kind, base_n, squares in gadgets:
        base = path_geometry(base_n) if base_kind == "path" else grid(3, base_n // 3)[0]
        parts = [base, SIX_CYCLE, *[SIDE_SQUARE] * squares]
        rng.shuffle(parts)
        union = shuffled_labels(disjoint_union(parts), rng)
        ops.append(_search_op("gadget", union, _expect_no_flow(None)))

    for _ in range(random_count):
        geom = _random_small(rng)
        has_flow = flow.brute_force_flow(geom) is not None
        check = _expect_found if has_flow else _expect_no_flow(None)
        ops.append(_search_op("random-small", shuffled_labels(geom, rng), check))

    rng.shuffle(ops)
    return ops


def build_search_mixed(rng: random.Random, tiny: bool) -> Workload:
    require(flow.brute_force_flow(SIX_CYCLE) is None, "oracle finds a flow on the 6-cycle")
    rounds = [_search_round(rng, tiny) for _ in range(2 if tiny else SEARCH_POOL)]
    warm_up = [op for op in rounds[0] if op.kind in ("random-small", "edge-bound")][:4]
    return Workload(rounds, warm_up)


# -- certify-large ---------------------------------------------------------

CERTIFY_K = 5
# Ops per round.  Slots 0..S-3 have a size s on a geometric ladder from
# lo to mid, slot S-2 has s = 2 mid, and slot S-1 is the extremal geometry
# with n = hi.  Grids are on even slots with n = GRID_SIZE_RATIO * s, since
# a grid vertex costs about 1/1.7 of an extremal one; extremal geometries
# are on odd slots with n = s.  Op cost then rises smoothly up to slot
# S-3, so the median op and the p75 tail lie where sizes are dense rather
# than in a gap between two slots.  A round takes about 7 s on the seed
# package, so a 20 s phase runs MIN_ROUNDS = 3 rounds, 48 ops, and the
# p75 tail has 12 ops beyond it.
# Sizes are the same in every round and for every seed; the seed picks
# partition shapes and grid aspect ratios.
CERTIFY_SIZES = (1_000, 10_000, 40_000)
TINY_CERTIFY_SIZES = (100, 200, 400)
CERTIFY_SLOTS = 16
TINY_CERTIFY_SLOTS = 4
GRID_SIZE_RATIO = 1.7
# Distinct rounds generated at set-up; a 20 s phase on the seed package
# runs three, a faster version more, cycling through these.
CERTIFY_ROUNDS = 5


def _certify_op(kind: str, shape: tuple[int, ...]) -> Op:
    if kind == "extremal":
        n = sum(shape)
        edges = extremal.gamma(n, len(shape))
    else:
        rows, cols = shape
        edges = rows * (cols - 1) + cols * (rows - 1)

    def run():
        if kind == "extremal":
            geom, cover = extremal.generate_extremal(ExtremalPartition(shape))
        else:
            geom, cover = grid(*shape)
        text = geometry.serialize_geometry(geom)
        loaded = geometry.load_geometry(text)
        result = flow.flow_from_cover(loaded, cover_on(loaded, geom, cover))
        verdict = flow.verify_flow(loaded, result.flow)
        flow_text = flow.dump_flow(loaded, result.flow, result.cover)
        reread, reread_cover = flow.load_flow(loaded, flow_text)
        order = simulate.measurement_order(reread)
        return geom, loaded, result, verdict, reread, reread_cover, order

    return Op(kind, edges, run, _check_certified)


def _check_certified(output) -> tuple[str, dict[str, int]]:
    geom, loaded, result, verdict, reread, reread_cover, order = output
    if result.status != "found" or not verdict.ok:
        raise WrongAnswer(f"construction flow rejected: {result.status} {verdict.condition}")
    # The geometry file round trip is exact: same labels, ends and edges.
    new_id = [loaded.id_of(geom.label_of(v)) for v in range(geom.vertex_count)]
    edges = sorted((min(new_id[u], new_id[v]), max(new_id[u], new_id[v])) for u, v in geom.graph.edges())
    if (
        loaded.vertex_count != geom.vertex_count
        or edges != list(loaded.graph.edges())
        or {new_id[v] for v in geom.inputs} != loaded.inputs
        or {new_id[v] for v in geom.outputs} != loaded.outputs
    ):
        raise WrongAnswer("geometry file round trip changed the geometry")
    if (
        reread.successor.pairs != result.flow.successor.pairs
        or reread.order_rank != result.flow.order_rank
        or reread_cover.paths != result.cover.paths
    ):
        raise WrongAnswer("flow file round trip changed the flow")
    ranks = reread.order_rank
    if sorted(order) != list(loaded.measured) or any(
        ranks[a] > ranks[b] for a, b in zip(order, order[1:])
    ):
        raise WrongAnswer("measurement order is not a rank order of the measured vertices")
    return "ok", {}


def build_certify_large(rng: random.Random, tiny: bool) -> Workload:
    lo, mid, hi = TINY_CERTIFY_SIZES if tiny else CERTIFY_SIZES
    slots = TINY_CERTIFY_SLOTS if tiny else CERTIFY_SLOTS
    sizes = [lo * (mid / lo) ** (j / (slots - 3)) for j in range(slots - 2)] + [2 * mid, hi]
    rounds = []
    for _ in range(2 if tiny else CERTIFY_ROUNDS):
        ops = []
        for j, size in enumerate(sizes):
            if j % 2:
                ops.append(_certify_op("extremal", random_partition(round(size), CERTIFY_K, rng).parts))
            else:
                rows = rng.randint(4, 32)
                ops.append(_certify_op("grid", (rows, max(2, round(GRID_SIZE_RATIO * size / rows)))))
        rounds.append(ops)
    warm_up = [_certify_op("extremal", random_partition(lo, CERTIFY_K, rng).parts)]
    return Workload(rounds, warm_up)


# -- simulate-sweep --------------------------------------------------------

# Every partition of these n, plus a seeded sample of partitions of the
# next n: SIMULATE_SAMPLE_PER_K of each number of parts k in
# SIMULATE_SAMPLE_K.  A draw's cost grows with k, so a fixed count per k
# keeps the cost of a round the same for every seed.  Memory grows as
# 2^n x 2^k, so the sample stays clear of the all-ones n = 12 case.
SIMULATE_FULL_N = (10, 11)
SIMULATE_SAMPLE_K = (2, 3, 4, 5, 6)
SIMULATE_SAMPLE_PER_K = 2
TINY_SIMULATE_FULL_N = (5, 6)
TINY_SIMULATE_SAMPLE_K = (2, 3)
TINY_SIMULATE_SAMPLE_PER_K = 1


def _draw_op(geom: Geometry, flow_: flow.CausalFlow, angle_rng: np.random.Generator) -> Op:
    def run():
        angles = simulate.draw_angles(geom.measured, angle_rng)
        vmap = simulate.simulate_postselected(simulate.MeasurementPattern(geom, flow_, angles))
        return simulate.isometry_defect(vmap)

    def check(defect) -> tuple[str, dict[str, int]]:
        if not defect < DEFECT_TOLERANCE:
            raise WrongAnswer(f"isometry defect {defect:.3e} >= {DEFECT_TOLERANCE:g}")
        return "ok", {}

    return Op(f"draw-n{geom.vertex_count}", geom.graph.edge_count, run, check)


def build_simulate_sweep(rng: random.Random, tiny: bool) -> Workload:
    full_n = TINY_SIMULATE_FULL_N if tiny else SIMULATE_FULL_N
    sample_k = TINY_SIMULATE_SAMPLE_K if tiny else SIMULATE_SAMPLE_K
    per_k = TINY_SIMULATE_SAMPLE_PER_K if tiny else SIMULATE_SAMPLE_PER_K
    sample_n = full_n[-1] + 1
    shapes = [p for n in full_n for p in partitions(n)]
    for k in sample_k:
        shapes += rng.sample([p for p in partitions(sample_n) if len(p) == k], per_k)
    # numpy is imported here, not at the top, so that the other workloads
    # pay for it only if the package itself still imports it.
    import numpy as np

    angle_rng = np.random.default_rng(rng.randrange(2**32))

    ops = []
    for shape in shapes:
        geom, cover = extremal.generate_extremal(ExtremalPartition(shape))
        ops.append(_draw_op(geom, reference_flow(geom, cover), angle_rng))
    rng.shuffle(ops)
    warm_up = [min(ops, key=lambda op: op.edges)]
    return Workload([ops], warm_up)


# -- cli-small -------------------------------------------------------------


@dataclass
class CliCommand:
    subcommand: str
    args: list[str]
    exit_code: int
    verdict: str
    edges: int


def _cli_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def verdict_line(stdout: str) -> str:
    lines = [line for line in stdout.splitlines() if line.startswith("VERDICT:")]
    return lines[-1] if len(lines) == 1 else ""


def _cli_op(command: CliCommand, src: Path, workdir: Path) -> Op:
    def run():
        # subprocess.run waits for the process, and kills it on timeout.
        return subprocess.run(
            [sys.executable, "-m", "flowscope", command.subcommand, *command.args],
            cwd=workdir,
            env=_cli_env(src),
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(proc) -> tuple[str, dict[str, int]]:
        line = verdict_line(proc.stdout)
        if proc.returncode == 3:
            return "undecided", {}
        if proc.returncode != command.exit_code or not line.startswith(command.verdict):
            raise WrongAnswer(
                f"{command.subcommand}: exit {proc.returncode}, {line or 'no VERDICT line'}; "
                f"expected exit {command.exit_code}, {command.verdict}"
            )
        return "ok", {}

    return Op(command.subcommand, command.edges, run, check)


def build_cli_small(rng: random.Random, src: Path, workdir: Path) -> Workload:
    # The files are small at every size.  n and k are fixed so that every
    # seed moves the same number of edges.
    shape = rng.choice([p for p in partitions(10) if len(p) == 3])
    geom, cover = extremal.generate_extremal(ExtremalPartition(shape))
    shuffled = shuffled_labels(geom, rng)
    text = geometry.serialize_geometry(shuffled)
    loaded = geometry.load_geometry(text)
    flow_text = flow.dump_flow(loaded, reference_flow(loaded, cover_on(loaded, shuffled, cover)))
    require(flow.brute_force_flow(SIX_CYCLE) is None, "oracle finds a flow on the 6-cycle")
    gen_shape = rng.choice([p for p in partitions(12) if len(p) == 3])

    files = {
        "geometry.json": text,
        "flow.json": flow_text,
        "six-cycle.json": geometry.serialize_geometry(SIX_CYCLE),
    }
    for name, content in files.items():
        (workdir / name).write_text(content)
    g, f, six = (str(workdir / name) for name in files)
    m = geom.graph.edge_count
    gen_m = extremal.gamma(sum(gen_shape), len(gen_shape))
    commands = [
        CliCommand("check-bound", [g], 0, "VERDICT: property-holds", m),
        CliCommand("find-flow", [g], 0, "VERDICT: flow-found", m),
        CliCommand("verify-flow", [g, f], 0, "VERDICT: property-holds", m),
        CliCommand("order", [g, f], 0, "VERDICT: property-holds", m),
        CliCommand(
            "gen-extremal",
            ["--partition", ",".join(map(str, gen_shape)), "--out", str(workdir / "generated.json")],
            0,
            "VERDICT: property-holds",
            gen_m,
        ),
        CliCommand(
            "simulate",
            [g, f, "--random-angles", "1", "--seed", str(rng.randrange(1000))],
            0,
            "VERDICT: property-holds",
            m,
        ),
        CliCommand("find-flow", [six], 1, "VERDICT: no-flow", 6),
    ]
    ops = [_cli_op(command, src, workdir) for command in commands]
    return Workload([ops], ops[:1], commands)


IMPORT_TIMER = "import time; t = time.perf_counter(); import flowscope.cli; print(time.perf_counter() - t)"
# Child processes per start-up and import probe; the probe reports medians.
CLI_PROBE_REPEATS = 5


def cli_probe(workload: Workload, src: Path, workdir: Path) -> dict[str, float]:
    """Median start-up, import and in-process ``cli.main`` times, in ms."""

    def python(code: str) -> tuple[float, str]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=workdir, env=_cli_env(src), capture_output=True, text=True
        )
        elapsed = (time.perf_counter() - start) * 1e3
        if proc.returncode != 0:
            raise WrongAnswer(f"python -c {code!r} exited {proc.returncode}: {proc.stderr.strip()}")
        return elapsed, proc.stdout

    startup = [python("pass")[0] for _ in range(CLI_PROBE_REPEATS)]
    imports = [float(python(IMPORT_TIMER)[1]) * 1e3 for _ in range(CLI_PROBE_REPEATS)]
    mains = []
    for _ in range(2):
        for command in workload.cli_commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = cli.main([command.subcommand, *command.args])
                mains.append((time.perf_counter() - start) * 1e3)
            if code != command.exit_code or not verdict_line(out.getvalue()).startswith(command.verdict):
                raise WrongAnswer(f"in-process {command.subcommand} exited {code}")
    return {
        "cli.python_startup_ms": statistics.median(startup),
        "cli.import_ms": statistics.median(imports),
        "cli.main_ms": statistics.median(mains),
    }


def build(name: str, seed: int, tiny: bool, src: Path, workdir: Path) -> Workload:
    """Generate a workload's instances and reference answers from the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "search-mixed":
        return build_search_mixed(rng, tiny)
    if name == "certify-large":
        return build_certify_large(rng, tiny)
    if name == "simulate-sweep":
        return build_simulate_sweep(rng, tiny)
    return build_cli_small(rng, src, workdir)
