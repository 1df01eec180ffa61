"""CLI fuzzing: generated and mutated geometry and flow files never make a command crash.

Every run of check-bound, find-flow, verify-flow and order must return
without raising, print exactly one ``VERDICT:`` line on stdout, and exit
0, 1 or 2: a broken file is an input error (2), never an internal one (4).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscope import dump_flow, find_causal_flow, load_geometry
from flowscope.cli import main

from .test_loader import TEXT_FAULTS, geometry_data, geometry_texts

TEXT = st.text(st.sampled_from("ab0'"), max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def nodes(value, path=()):
    """The path of every value inside a parsed JSON document, below the root."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from nodes(item, path + (key,))


def mutated(draw, data):
    """``data`` with one value replaced by arbitrary JSON, or one key or item removed."""
    path = draw(st.sampled_from(list(nodes(data))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        del parent[path[-1]]
    return data


@st.composite
def flow_texts(draw, geometry_text: str) -> str:
    """A flow file for the geometry: the found flow, or a made-up one, perhaps mutated."""
    try:
        geom = load_geometry(geometry_text)
    except ValueError:
        geom = None
    result = find_causal_flow(geom) if geom is not None else None
    if result is not None and result.status == "found":
        data = json.loads(dump_flow(geom, result.flow))
    else:
        labels = geom.labels if geom is not None else ["a", "b", "c"]
        rng = random.Random(draw(st.integers(0, 2**16)))
        targets = rng.sample(labels, len(labels))
        data = {
            "successor": {x: y for x, y in zip(labels, targets) if rng.random() < 0.6},
            "ranks": {label: rng.randrange(4) for label in labels},
            "paths": [[label] for label in labels],
        }
    fault = draw(st.sampled_from(["none", "ranks", "value", "file"]))
    if fault == "ranks":  # a flow file that parses but may fail verify_flow
        data["ranks"] = dict.fromkeys(data["ranks"], 0)
    elif fault == "value":
        data = mutated(draw, data)
    text = json.dumps(data)
    if fault == "file":
        text = TEXT_FAULTS[draw(st.sampled_from(sorted(TEXT_FAULTS)))](text)
    return text


@st.composite
def cli_cases(draw):
    """A command line and the geometry and flow texts it reads."""
    command = draw(st.sampled_from(["check-bound", "find-flow", "find-flow --out o.json", "verify-flow", "order"]))
    reads_flow = command in ("verify-flow", "order")
    # Commands that read a flow mostly get a sound geometry, so that the flow file is what is tested.
    fault = draw(st.sampled_from(["none", "file", "value"] + ["none"] * 4 * reads_flow))
    if fault == "file":
        geometry_text = draw(geometry_texts())
    else:
        data = draw(geometry_data())
        geometry_text = json.dumps(mutated(draw, data) if fault == "value" else data)
    argv = command.split()[:1] + ["g.json"] + command.split()[1:]
    flow_text = None
    if reads_flow:
        flow_text = draw(flow_texts(geometry_text))
        argv.append("f.json")
    if draw(st.booleans()):
        argv.append("--porcelain")
    return argv, geometry_text, flow_text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(cli_cases())
@settings(max_examples=250, deadline=None)
def test_commands_survive_broken_files(workdir, case):
    argv, geometry_text, flow_text = case
    (workdir / "g.json").write_text(geometry_text, encoding="utf-8")
    if flow_text is not None:
        (workdir / "f.json").write_text(flow_text, encoding="utf-8")
    argv = [str(workdir / arg) if arg.endswith(".json") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    verdicts = [line for line in out.getvalue().splitlines() if line.startswith("VERDICT:")]
    assert len(verdicts) == 1, out.getvalue()
    assert code in (0, 1, 2), (code, err.getvalue())
    assert (code == 2) == (verdicts[0] == "VERDICT: error reason=input")
