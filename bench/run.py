"""flowscope benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.

``--trace 0`` sets the workload up SETUP_REPEATS times (``setup_s`` is the
import time plus the median set-up), then sends one op at a time, waiting
for each, in whole rounds (at least MIN_ROUNDS) until S seconds have
passed, and prints the end-to-end metrics.  Every time is corrected for
the host's speed (see ``hostspeed.py``); the uncorrected op_p50_ms and
ops_per_s are printed too.  ``--trace 1`` runs S/2 seconds untraced and
S/2 with spans installed around the package's public functions, prints
the per-layer metrics and the tracing overhead, and writes the spans to
``bench/out/trace-<workload>.json``.  Every op is
checked against a known answer (see ``workloads.py``).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"

WORKLOADS = ("search-mixed", "certify-large", "simulate-sweep", "cli-small")
SETUP_REPEATS = 5
# A phase runs whole rounds until its seconds have passed, and at least
# this many, so that a slow version still gives op_tail_ms enough samples.
MIN_ROUNDS = 3
# Percentile that op_tail_ms reads, per workload: the highest of 50, 75,
# 90, 95, 99, 99.5 and 99.9 that leaves at least 10 ops beyond it in a
# 20 s run of the seed package on a slow host.  It is fixed, so that a
# faster version, which fits more ops into a run, reads the same
# percentile.
TAIL_PERCENTILE = {
    "search-mixed": 99,
    "certify-large": 75,
    "simulate-sweep": 95,
    "cli-small": 75,
}
MAX_ERRORS_SHOWN = 5
# Reference kernel of each workload (see hostspeed.py): the kind of work
# its ops spend their time in.
SPEED_KERNEL = {
    "search-mixed": "python",
    "certify-large": "python",
    "simulate-sweep": "numpy",
    "cli-small": "python",
}


@dataclass
class Phase:
    """What one timed loop over whole rounds observed."""

    # Per op, in order: start time, wall seconds, speed-corrected seconds.
    starts: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    # One (ops, edges, index of its first op) triple per whole round.
    rounds: list[tuple[int, int, int]] = field(default_factory=list)
    undecided: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def correct(self, speed: HostSpeed) -> None:
        self.latencies = [
            wall * speed.scale(start, start + wall) for start, wall in zip(self.starts, self.walls)
        ]

    def rate(self, what: str, times: list[float] | None = None) -> float:
        """Median over rounds of ops (or edges) per second spent in ops."""
        times = self.latencies if times is None else times
        column = 0 if what == "ops" else 1
        return statistics.median(r[column] / sum(times[r[2] : r[2] + r[0]]) for r in self.rounds)

    def by_kind(self, kind: str) -> list[float]:
        return [t for k, t in zip(self.kinds, self.walls) if k == kind]


def run_op(op, phase: Phase, tracer=None) -> None:
    if tracer is not None:
        tracer.begin_op(op.kind)
    start = time.perf_counter()
    try:
        output, error = op.run(), None
    except Exception as exc:  # a failed op is counted, and the loop goes on
        output, error = None, exc
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(op.kind)
    phase.starts.append(start)
    phase.walls.append(elapsed)
    phase.kinds.append(op.kind)
    if error is None:
        try:
            verdict, counts = op.check(output)
        except Exception as exc:  # a wrong answer, or output the check cannot read
            error = exc
        else:
            phase.counts.update(counts)
            phase.undecided += verdict == "undecided"
            return
    phase.failed += 1
    if len(phase.errors) < MAX_ERRORS_SHOWN:
        phase.errors.append(f"{op.kind}: {type(error).__name__}: {error}")


def run_phase(workload, seconds: float, speed: HostSpeed, tracer=None) -> Phase:
    """Closed loop over whole rounds, at least MIN_ROUNDS, for ``seconds``.

    The host's speed is sampled between ops, never inside one.
    """
    phase = Phase()
    speed.sample()
    start = time.perf_counter()
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() - start < seconds:
        ops = workload.round(index)
        phase.rounds.append((len(ops), sum(op.edges for op in ops), phase.attempted))
        for op in ops:
            if speed.due():
                speed.sample()
            run_op(op, phase, tracer)
        index += 1
    speed.sample()
    phase.correct(speed)
    return phase


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile, and how many samples lie beyond it."""
    rank = math.ceil(pct / 100 * len(latencies))
    return sorted(latencies)[rank - 1], len(latencies) - rank


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of its largest waited-for child.

    ``cli-small`` runs its ops as child processes, so their peak is the
    workload's; the runner itself, which holds numpy and the instances,
    would otherwise mask it.  ru_maxrss is in KiB on Linux.
    """
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_s: float, children: bool, tail_pct: float) -> dict:
    tail_s, beyond = tail(phase.latencies, tail_pct)
    print(f"op_tail_ms is p{tail_pct:g} of {phase.attempted} ops ({beyond} beyond it)")
    print(
        f"wall time, uncorrected: op_p50_ms {statistics.median(phase.walls) * 1e3:.6g}, "
        f"ops_per_s {phase.rate('ops', phase.walls):.6g}"
    )
    return {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(statistics.median(phase.latencies) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "ops_per_s": metric(phase.rate("ops"), "1/s"),
        "edges_per_s": metric(phase.rate("edges"), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(children), "MB"),
    }


# Per-layer metrics read from spans: (metric, span, statistic, unit).  All
# are per op of the traced phase; "s" is inclusive time, "self" excludes
# the time of spans nested inside.
SPAN_METRICS = (
    ("matching.max_matching_size.calls", "matching.max_matching_size", "calls", "calls/op"),
    ("matching.max_matching_size.s", "matching.max_matching_size", "s", "s/op"),
    ("flow.find_causal_flow.self_s", "flow.find_causal_flow", "self", "s/op"),
    ("flow.build_influencing_digraph.s", "flow.build_influencing_digraph", "s", "s/op"),
    ("flow.acyclic_order.s", "flow.acyclic_order", "s", "s/op"),
    ("flow.acyclic_order.calls", "flow.acyclic_order", "calls", "calls/op"),
    ("flow.flow_from_cover.s", "flow.flow_from_cover", "s", "s/op"),
    ("flow.verify_flow.s", "flow.verify_flow", "s", "s/op"),
    ("flow.dump_flow.s", "flow.dump_flow", "s", "s/op"),
    ("flow.load_flow.s", "flow.load_flow", "s", "s/op"),
    ("geometry.load_geometry.s", "geometry.load_geometry", "s", "s/op"),
    ("geometry.serialize_geometry.s", "geometry.serialize_geometry", "s", "s/op"),
    ("extremal.generate_extremal.s", "extremal.generate_extremal", "s", "s/op"),
    ("simulate.simulate_postselected.s", "simulate.simulate_postselected", "s", "s/op"),
    ("simulate.isometry_defect.s", "simulate.isometry_defect", "s", "s/op"),
    ("simulate.draw_angles.s", "simulate.draw_angles", "s", "s/op"),
)
CLI_SUBCOMMANDS = ("check-bound", "find-flow", "verify-flow", "order", "gen-extremal", "simulate")
CLI_PROBES = ("cli.python_startup_ms", "cli.import_ms", "cli.main_ms")


def per_layer(tracer, untraced: Phase, traced: Phase, probe: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced phase, and the names reported absent.

    A layer the workload does not reach reads 0.  A layer whose function
    the package no longer defines also reads 0 and is named as absent.
    """
    ops = traced.attempted
    absent = set(tracer.absent)
    metrics = {}
    for name, span, stat, unit in SPAN_METRICS:
        if stat == "calls":
            value = tracer.calls(span)
        else:
            value = tracer.seconds(span, self_time=stat == "self")
        metrics[name] = metric(value / ops, unit)
        if span in absent:
            absent.add(name)

    yielded = tracer.counters.get("matching.iter_saturating_assignments.yielded", 0)
    metrics["matching.assignments_yielded"] = metric(yielded / ops, "count/op")
    if "matching.iter_saturating_assignments" in absent:
        absent.add("matching.assignments_yielded")
    metrics["flow.digraph_arcs"] = metric(tracer.counters.get("flow.digraph_arcs", 0) / ops, "count/op")

    counts = traced.counts
    per_decision = counts["tried_decided"] / max(counts["decided"], 1)
    metrics["flow.matchings_per_decision"] = metric(per_decision, "count")
    metrics["flow.acyclic_hit_ratio"] = metric(counts["found"] / max(counts["tried"], 1), "ratio")
    if counts["search"] and "tried" not in counts:
        absent |= {"flow.matchings_per_decision", "flow.acyclic_hit_ratio"}
    metrics["flow.undecided_share"] = metric(traced.undecided / ops, "share")

    for name in CLI_PROBES:
        metrics[name] = metric(probe.get(name, 0.0), "ms")
    for sub in CLI_SUBCOMMANDS:
        walls = traced.by_kind(sub)
        metrics[f"cli.{sub}.wall_ms"] = metric(statistics.median(walls) * 1e3 if walls else 0.0, "ms")

    untraced_rate, traced_rate = untraced.rate("ops"), traced.rate("ops")
    metrics["trace.ops_per_s_untraced"] = metric(untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = metric(traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = metric(untraced_rate / traced_rate, "ratio")
    metrics["trace.spans"] = metric(len(tracer.spans) + tracer.dropped, "count")
    return metrics, sorted(absent & set(metrics))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny instances, for the smoke test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "flowscope" / "__init__.py").is_file():
        print(f"error: no flowscope sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    speed = HostSpeed(SPEED_KERNEL[args.workload])
    # Everything the runner imports is part of set-up time.  The first
    # kernel sample comes after the first set-up, so that it imports
    # nothing that set-up would otherwise pay for.
    start = time.perf_counter()
    import workloads
    from tracer import Tracer

    imported = (start, time.perf_counter())

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, args.tiny, SRC, workdir)
            warm = Phase()
            for op in workload.warm_up:
                run_op(op, warm)
            end = time.perf_counter()
            speed.sample()
            setups.append((end - start) * speed.scale(start, end))
        for message in warm.errors:
            print(f"{args.workload}  warm-up error: {message}", file=sys.stderr)
        setup_s = (imported[1] - imported[0]) * speed.scale(*imported) + statistics.median(setups)

        if not args.trace:
            phases = [run_phase(workload, args.seconds, speed)]
            metrics = end_to_end(
                phases[0], setup_s, children=bool(workload.cli_commands), tail_pct=TAIL_PERCENTILE[args.workload]
            )
        else:
            untraced = run_phase(workload, args.seconds / 2, speed)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, args.seconds / 2, speed, tracer)
            finally:
                tracer.uninstall()
            probe = workloads.cli_probe(workload, SRC, workdir) if workload.cli_commands else {}
            tracer.write(OUT / f"trace-{args.workload}.json")
            metrics, absent = per_layer(tracer, untraced, traced, probe)
            if absent:
                print(f"{args.workload}  absent in this version (reads 0): {', '.join(absent)}")
            phases = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    undecided = sum(p.undecided for p in phases)
    for name, entry in metrics.items():
        print(f"{args.workload}  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    print(
        f"{args.workload}  failed_share {failed / attempted:.4g} ({failed} of {attempted}); "
        f"undecided_share {undecided / attempted:.4g} ({undecided} of {attempted})"
    )
    print(f"{args.workload}  {speed.summary()}")
    for message in [m for p in phases for m in p.errors]:
        print(f"{args.workload}  error: {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
