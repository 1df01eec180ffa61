"""Command line front end.

Subcommands: check-bound, find-flow, verify-flow, gen-extremal, simulate,
order.  Output is line oriented and ends with a machine-readable line of
the form "VERDICT: <status> [key=value ...]".  Exit codes are a stable
contract: 0 success / property holds, 1 no flow / property fails, 2 input
error, 4 internal error (a bug, reported without a traceback); 3 is
reserved and never returned.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from flowscope.extremal import ExtremalPartition, gamma, generate_extremal
from flowscope.flow import (
    DEFAULT_ORACLE_BOUND,
    CausalFlow,
    FlowDomainError,
    FlowFormatError,
    OracleBoundError,
    brute_force_flow,
    dump_flow,
    find_causal_flow,
    load_flow,
    verify_flow,
)
from flowscope.geometry import Geometry, GeometryError, load_geometry, serialize_geometry
from flowscope.simulate import (
    DEFAULT_QUBIT_BOUND,
    MeasurementPattern,
    SimulationBoundError,
    ZeroMapError,
    draw_angles,
    isometry_defect,
    measurement_order,
    simulate_postselected,
)

ORACLE_BOUND_ENV = "FLOWSCOPE_ORACLE_BOUND"
DEFECT_THRESHOLD = 1e-9

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 4


class CliError(ValueError):
    """Bad invocation or unusable input file."""


@dataclass
class Report:
    """Collects human-readable lines and the final verdict."""

    porcelain: bool
    lines: list[str] = field(default_factory=list)

    def say(self, text: str) -> None:
        if not self.porcelain:
            self.lines.append(text)

    def verdict(self, status: str, **extras: object) -> None:
        tail = "".join(f" {key}={value}" for key, value in extras.items() if value is not None)
        self.lines.append(f"VERDICT: {status}{tail}")

    def emit(self, stream=None) -> None:
        out = stream if stream is not None else sys.stdout
        for line in self.lines:
            print(line, file=out)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_geometry_file(path: str) -> Geometry:
    return load_geometry(_read_text(path))


def _oracle_bound() -> int:
    raw = os.environ.get(ORACLE_BOUND_ENV)
    if raw is None:
        return DEFAULT_ORACLE_BOUND
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{ORACLE_BOUND_ENV} must be an integer, got {raw!r}") from None


def _describe_geometry(report: Report, geom: Geometry) -> None:
    report.say(
        f"geometry: n={geom.vertex_count} m={geom.graph.edge_count} "
        f"inputs={len(geom.inputs)} outputs={geom.output_count}"
    )


def _print_flow(report: Report, geom: Geometry, flow: CausalFlow) -> None:
    if geom.vertex_count <= 20:
        for x, y in flow.successor.pairs:
            report.say(f"f({geom.label_of(x)}) = {geom.label_of(y)}")
    report.say(f"depth: {flow.depth}")


def cmd_check_bound(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom = _load_geometry_file(args.geometry)
    n = geom.vertex_count
    k = geom.output_count
    m = geom.graph.edge_count
    if k == 0:
        raise CliError("edge bound needs at least one output vertex")
    bound = gamma(n, k)
    report.say(f"n = {n}")
    report.say(f"k = {k}")
    report.say(f"m = {m}")
    report.say(f"gamma({n}, {k}) = {bound}")
    if m <= bound:
        report.say("bound check: pass (m <= gamma)")
        report.verdict("property-holds", reason="edge-bound")
        report.emit()
        return EXIT_OK
    report.say("bound check: reject (m > gamma, no causal flow can exist)")
    report.verdict("property-fails", reason="edge-bound")
    report.emit()
    return EXIT_NEGATIVE


def cmd_find_flow(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom = _load_geometry_file(args.geometry)
    _describe_geometry(report, geom)

    if args.oracle:
        flow = brute_force_flow(geom, bound=_oracle_bound())
        if flow is None:
            report.say("oracle: no causal flow exists")
            report.verdict("no-flow", reason="oracle")
            report.emit()
            return EXIT_NEGATIVE
        report.say("oracle: flow found")
        _print_flow(report, geom, flow)
        if args.out:
            Path(args.out).write_text(dump_flow(geom, flow))
            report.say(f"wrote flow to {args.out}")
        report.verdict("flow-found", reason="oracle")
        report.emit()
        return EXIT_OK

    result = find_causal_flow(geom)
    if result.status == "found":
        report.say("flow found")
        _print_flow(report, geom, result.flow)
        if args.out:
            Path(args.out).write_text(dump_flow(geom, result.flow, result.cover))
            report.say(f"wrote flow to {args.out}")
        report.verdict("flow-found")
        report.emit()
        return EXIT_OK
    if result.reason == "edge-bound":
        report.say("no flow: edge count exceeds the gamma bound")
    elif result.reason == "no-cover":
        report.say("no flow: measured vertices cannot all be matched to partners")
    else:
        report.say("no flow: every candidate matching induces a cyclic influencing digraph")
        if result.cycle:
            report.say("cycle witness: " + " -> ".join(geom.label_of(v) for v in result.cycle))
    if result.obstruction:
        report.say("obstruction: " + " ".join(geom.label_of(v) for v in result.obstruction))
    report.verdict("no-flow", reason=result.reason)
    report.emit()
    return EXIT_NEGATIVE


def cmd_verify_flow(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom = _load_geometry_file(args.geometry)
    flow, _cover = load_flow(geom, _read_text(args.flow))
    check = verify_flow(geom, flow)
    if check.ok:
        report.say("flow verifies: all three conditions hold")
        report.verdict("property-holds", reason="certificate")
        report.emit()
        return EXIT_OK
    witness = " ".join(geom.label_of(v) for v in (check.witness or ()))
    report.say(f"flow rejected: condition {check.condition} fails at {witness}")
    report.verdict("property-fails", reason="certificate", condition=check.condition)
    report.emit()
    return EXIT_NEGATIVE


def cmd_gen_extremal(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    try:
        partition = ExtremalPartition.parse(args.partition)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    geom, _cover = generate_extremal(partition)
    n = geom.vertex_count
    k = geom.output_count
    m = geom.graph.edge_count
    bound = gamma(n, k)
    if m != bound:
        raise CliError(f"generator produced {m} edges but gamma({n}, {k}) = {bound}")
    report.say(f"partition: {','.join(str(p) for p in partition.parts)}")
    report.say(f"n = {n}")
    report.say(f"k = {k}")
    report.say(f"m = {m} = gamma({n}, {k})")
    text = serialize_geometry(geom)
    if args.out:
        Path(args.out).write_text(text)
        report.say(f"wrote geometry to {args.out}")
        report.verdict("property-holds", reason="edge-bound")
        report.emit()
    else:
        sys.stdout.write(text)
        report.verdict("property-holds", reason="edge-bound")
        report.emit(sys.stderr)
    return EXIT_OK


def _parse_angle_args(geom: Geometry, raw_args: list[str]) -> dict[int, float]:
    angles: dict[int, float] = {}
    for raw in raw_args:
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            label, _, value = item.partition("=")
            if not _:
                raise CliError(f"bad angle {item!r}: expected label=radians")
            try:
                theta = float(value)
            except ValueError:
                raise CliError(f"bad angle value in {item!r}") from None
            angles[geom.id_of(label.strip())] = theta
    missing = [v for v in geom.measured if v not in angles]
    if missing:
        raise CliError(f"missing angle for measured vertex {geom.label_of(missing[0])!r}")
    extra = [v for v in angles if v not in geom.measured]
    if extra:
        raise CliError(f"angle given for unmeasured vertex {geom.label_of(extra[0])!r}")
    return angles


def _dump_map(report: Report, vmap) -> None:
    for row in vmap.matrix:
        report.say(" ".join(f"{z.real:.15g}{z.imag:+.15g}j" for z in row))


def cmd_simulate(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom = _load_geometry_file(args.geometry)
    flow, _cover = load_flow(geom, _read_text(args.flow))
    check = verify_flow(geom, flow)
    if not check.ok:
        raise CliError(f"flow file does not verify (condition {check.condition})")

    if args.angles:
        draws = [_parse_angle_args(geom, args.angles)]
    elif args.random_angles:
        if args.random_angles < 0:
            raise CliError(f"--random-angles must be non-negative, got {args.random_angles}")
        if args.seed < 0:
            raise CliError(f"--seed must be non-negative, got {args.seed}")
        import numpy as np

        rng = np.random.default_rng(args.seed)
        draws = [draw_angles(geom.measured, rng) for _ in range(args.random_angles)]
    else:
        raise CliError("need --angles or --random-angles")

    worst = 0.0
    vmap = None
    for idx, angles in enumerate(draws):
        try:
            pattern = MeasurementPattern(geom, flow, angles)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        vmap = simulate_postselected(pattern, max_qubits=args.max_qubits)
        try:
            defect = isometry_defect(vmap)
        except ZeroMapError:
            report.say(f"draw {idx}: map is zero")
            report.verdict("property-fails", reason="certificate", defect="zero-map")
            report.emit()
            return EXIT_NEGATIVE
        worst = max(worst, defect)
        report.say(f"draw {idx}: defect {defect:.3e}")
    if args.dump_map and vmap is not None:
        _dump_map(report, vmap)
    holds = worst < DEFECT_THRESHOLD
    report.say(f"max defect: {worst:.3e} ({'<' if holds else '>='} {DEFECT_THRESHOLD:g})")
    report.verdict(
        "property-holds" if holds else "property-fails",
        reason="isometry",
        max_defect=f"{worst:.3e}",
    )
    report.emit()
    return EXIT_OK if holds else EXIT_NEGATIVE


def cmd_order(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom = _load_geometry_file(args.geometry)
    flow, _cover = load_flow(geom, _read_text(args.flow))
    check = verify_flow(geom, flow)
    if not check.ok:
        report.say(f"flow rejected: condition {check.condition} fails")
        report.verdict("property-fails", reason="certificate", condition=check.condition)
        report.emit()
        return EXIT_NEGATIVE
    schedule = measurement_order(flow)
    report.say("order: " + " ".join(geom.label_of(v) for v in schedule))
    report.verdict("property-holds", reason="certificate")
    report.emit()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowscope", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--porcelain", action="store_true", help="print only the final VERDICT line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-bound", parents=[common], help="edge-count gate against gamma(n, k)")
    p.add_argument("geometry")
    p.set_defaults(handler=cmd_check_bound)

    p = sub.add_parser("find-flow", parents=[common], help="decide flow existence, construct one")
    p.add_argument("geometry")
    p.add_argument("--oracle", action="store_true", help="use the exhaustive oracle")
    p.add_argument("--out", help="write the found flow to this file")
    p.set_defaults(handler=cmd_find_flow)

    p = sub.add_parser("verify-flow", parents=[common], help="check a flow file against a geometry")
    p.add_argument("geometry")
    p.add_argument("flow")
    p.set_defaults(handler=cmd_verify_flow)

    p = sub.add_parser("gen-extremal", parents=[common], help="generate the edge-maximal geometry")
    p.add_argument("--partition", required=True, help="comma-separated parts, e.g. 6,8,9")
    p.add_argument("--out", help="write the geometry here instead of stdout")
    p.set_defaults(handler=cmd_gen_extremal)

    p = sub.add_parser("simulate", parents=[common], help="post-selected isometry check")
    p.add_argument("geometry")
    p.add_argument("flow")
    p.add_argument("--angles", action="append", default=[], help="label=radians pairs, comma separated")
    p.add_argument("--random-angles", type=int, default=0, metavar="N", help="number of random draws")
    p.add_argument("--seed", type=int, default=0, help="seed for --random-angles")
    p.add_argument("--dump-map", action="store_true", help="print the map, row major, 15 digits")
    p.add_argument("--max-qubits", type=int, default=DEFAULT_QUBIT_BOUND, help="simulation size cap")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("order", parents=[common], help="print the measurement schedule of a flow")
    p.add_argument("geometry")
    p.add_argument("flow")
    p.set_defaults(handler=cmd_order)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        CliError,
        GeometryError,
        FlowFormatError,
        FlowDomainError,
        OracleBoundError,
        SimulationBoundError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("VERDICT: error reason=input")
        return EXIT_INPUT
    except Exception as exc:
        import logging  # only on this path, to keep start-up lean

        # The traceback goes to the (by default silent) "flowscope" logger.
        logging.getLogger("flowscope").debug("internal error", exc_info=True)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        print("VERDICT: error reason=internal")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
