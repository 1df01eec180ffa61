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
import sys
from pathlib import Path

from flowscope.extremal import ExtremalPartition, gamma, generate_extremal
from flowscope.flow import (
    CausalFlow,
    FlowCheck,
    FlowDomainError,
    FlowFormatError,
    _certificate_holds,
    _exceeds_gamma,
    dump_flow,
    find_causal_flow,
    flow_from_cover,
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

DEFECT_THRESHOLD = 1e-9

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 4

# The exit code of each verdict status a command can end with.
STATUS_EXIT = {
    "property-holds": EXIT_OK,
    "flow-found": EXIT_OK,
    "property-fails": EXIT_NEGATIVE,
    "no-flow": EXIT_NEGATIVE,
}

# The first line of a find-flow report without a flow, by reason.
NO_FLOW_LINES = {
    "edge-bound": "no flow: edge count exceeds the gamma bound",
    "no-cover": "no flow: measured vertices cannot all be matched to partners",
    "cyclic-D": "no flow: every candidate matching induces a cyclic influencing digraph",
}


class CliError(ValueError):
    """Bad invocation or unusable input file."""


class Report:
    """Collects human-readable lines until the verdict ends the command."""

    def __init__(self, porcelain: bool) -> None:
        self.porcelain = porcelain
        self.lines: list[str] = []

    def say(self, *lines: str) -> None:
        if not self.porcelain:
            self.lines.extend(lines)

    def finish(self, status: str, stream=None, **extras: object) -> int:
        """Add the verdict, print all lines to ``stream`` (default stdout), return the exit code."""
        tail = "".join(f" {key}={value}" for key, value in extras.items())
        self.lines.append(f"VERDICT: {status}{tail}")
        print("\n".join(self.lines), file=stream if stream is not None else sys.stdout)
        return STATUS_EXIT[status]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def cmd_check_bound(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom = load_geometry(_read_text(args.geometry))
    n, k, m = geom.vertex_count, geom.output_count, geom.graph.edge_count
    if k == 0:
        raise CliError("edge bound needs at least one output vertex")
    report.say(f"n = {n}", f"k = {k}", f"m = {m}", f"gamma({n}, {k}) = {gamma(n, k)}")
    if not _exceeds_gamma(geom):
        report.say("bound check: pass (m <= gamma)")
        return report.finish("property-holds", reason="edge-bound")
    report.say("bound check: reject (m > gamma, no causal flow can exist)")
    return report.finish("property-fails", reason="edge-bound")


def cmd_find_flow(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom = load_geometry(_read_text(args.geometry))
    report.say(
        f"geometry: n={geom.vertex_count} m={geom.graph.edge_count} "
        f"inputs={len(geom.inputs)} outputs={geom.output_count}"
    )
    result = find_causal_flow(geom)
    if not _certificate_holds(geom, result):
        # Exit 4, so that no wrong verdict is printed.
        raise AssertionError(f"{result.status} verdict ({result.reason}) fails its certificate check")
    if result.status == "found":
        report.say("flow found")
        if geom.vertex_count <= 20:
            for x, y in result.flow.successor.pairs:
                report.say(f"f({geom.label_of(x)}) = {geom.label_of(y)}")
        report.say(f"depth: {result.flow.depth}")
        if args.out:
            Path(args.out).write_text(dump_flow(geom, result.flow))
            report.say(f"wrote flow to {args.out}")
        return report.finish("flow-found")
    report.say(NO_FLOW_LINES[result.reason])
    if result.cycle:
        report.say("cycle witness: " + " -> ".join(geom.label_of(v) for v in result.cycle))
    if result.obstruction:
        report.say("obstruction: " + " ".join(geom.label_of(v) for v in result.obstruction))
    return report.finish("no-flow", reason=result.reason)


def _load_checked_flow(args: argparse.Namespace) -> tuple[Geometry, CausalFlow, FlowCheck]:
    """The geometry and flow files named by ``args``, and ``verify_flow`` on them."""
    geom = load_geometry(_read_text(args.geometry))
    flow, _cover = load_flow(geom, _read_text(args.flow))
    return geom, flow, verify_flow(geom, flow)


def cmd_verify_flow(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom, _flow, check = _load_checked_flow(args)
    if check.ok:
        report.say("flow verifies: all three conditions hold")
        return report.finish("property-holds", reason="certificate")
    witness = " ".join(geom.label_of(v) for v in (check.witness or ()))
    report.say(f"flow rejected: condition {check.condition} fails at {witness}")
    return report.finish("property-fails", reason="certificate", condition=check.condition)


def cmd_gen_extremal(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    try:
        partition = ExtremalPartition.parse(args.partition)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    geom, cover = generate_extremal(partition)
    n, k, m = geom.vertex_count, geom.output_count, geom.graph.edge_count
    bound = gamma(n, k)
    # The partition is valid, so a failed check is a bug in the generator (exit 4).
    if m != bound:
        raise AssertionError(f"generator produced {m} edges but gamma({n}, {k}) = {bound}")
    result = flow_from_cover(geom, cover)
    if result.status != "found" or not _certificate_holds(geom, result):
        raise AssertionError("the generated cover does not give a flow that passes verify_flow")
    del result, cover  # freed before the geometry is serialized
    report.say(f"partition: {','.join(map(str, partition.parts))}", f"n = {n}", f"k = {k}")
    report.say(f"m = {m} = gamma({n}, {k})")
    text = serialize_geometry(geom)
    if args.out:
        Path(args.out).write_text(text)
        report.say(f"wrote geometry to {args.out}")
        return report.finish("property-holds", reason="edge-bound")
    sys.stdout.write(text)
    return report.finish("property-holds", sys.stderr, reason="edge-bound")


def _parse_angle_args(geom: Geometry, raw_args: list[str]) -> dict[int, float]:
    """Angles by vertex id, each label at most once; ``MeasurementPattern`` checks that they fit the measured set."""
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
            v = geom.id_of(label.strip())
            if v in angles:
                raise CliError(f"angle for {label.strip()!r} given twice")
            angles[v] = theta
    return angles


def cmd_simulate(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom, flow, check = _load_checked_flow(args)
    if not check.ok:
        raise CliError(f"flow file does not verify (condition {check.condition})")

    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    if args.angles:
        if args.seed is not None:
            raise CliError("--seed applies only to --random-angles")
        draws = [_parse_angle_args(geom, args.angles)]
    elif args.random_angles is not None:
        if args.random_angles < 0:
            raise CliError(f"--random-angles must be non-negative, got {args.random_angles}")
        if args.random_angles == 0:
            raise CliError("--random-angles must be positive, got 0")
        import numpy as np

        rng = np.random.default_rng(args.seed or 0)
        # Drawn one at a time, so the qubit cap is checked before the second draw.
        draws = (draw_angles(geom.measured, rng) for _ in range(args.random_angles))
    else:
        raise CliError("need --angles or --random-angles")

    worst = 0.0
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
            return report.finish("property-fails", reason="certificate", defect="zero-map")
        worst = max(worst, defect)
        report.say(f"draw {idx}: defect {defect:.3e}")
    if args.dump_map:
        report.say(*(" ".join(f"{z.real:.15g}{z.imag:+.15g}j" for z in row) for row in vmap.matrix))
    holds = worst < DEFECT_THRESHOLD
    report.say(f"max defect: {worst:.3e} ({'<' if holds else '>='} {DEFECT_THRESHOLD:g})")
    status = "property-holds" if holds else "property-fails"
    return report.finish(status, reason="isometry", max_defect=f"{worst:.3e}")


def cmd_order(args: argparse.Namespace) -> int:
    report = Report(args.porcelain)
    geom, flow, check = _load_checked_flow(args)
    if not check.ok:
        report.say(f"flow rejected: condition {check.condition} fails")
        return report.finish("property-fails", reason="certificate", condition=check.condition)
    report.say("order: " + " ".join(geom.label_of(v) for v in measurement_order(flow)))
    return report.finish("property-holds", reason="certificate")


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
    angles = p.add_mutually_exclusive_group()
    angles.add_argument("--angles", action="append", default=[], help="label=radians pairs, comma separated")
    angles.add_argument("--random-angles", type=int, metavar="N", help="number of random draws")
    p.add_argument("--seed", type=int, help="seed for --random-angles (default 0)")
    p.add_argument("--dump-map", action="store_true", help="print the map, row major, 15 digits")
    p.add_argument("--max-qubits", type=int, default=DEFAULT_QUBIT_BOUND, help="simulation size cap")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("order", parents=[common], help="print the measurement schedule of a flow")
    p.add_argument("geometry")
    p.add_argument("flow")
    p.set_defaults(handler=cmd_order)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help, or the usage and the error
        if not exc.code:
            raise
        print("VERDICT: error reason=input")
        return EXIT_INPUT
    try:
        return args.handler(args)
    except (
        CliError,
        GeometryError,
        FlowFormatError,
        FlowDomainError,
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
