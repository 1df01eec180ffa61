"""The paper's results at scale: extremal k = 5 at n = 40000 and no-flow files of that size.

Each test runs at the size the results are claimed for, so the module is
marked ``scale``, which ``pyproject.toml`` deselects from the default run.
Run it with ``python -m pytest -m scale``, which also runs the at-scale
parameters of ``tests/test_matching_scale.py``.  The shared files are
those of the large-file CLI path: ``g`` is the extremal geometry that
``flowscope gen-extremal --partition 8000,8000,8000,8000,8000`` writes,
``sparse`` a seeded random graph with too few partners for a matching,
and ``gadget`` ``g`` beside the six-cycle, so it has a cycle in D.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import combinations

import pytest

from flowscope import ExtremalPartition, find_causal_flow, generate_extremal, load_geometry, serialize_geometry
from flowscope.flow import _backward_greedy

from .conftest import cover_pairs
from .extremal_reference import (
    classify_arcs,
    iter_influence_arcs,
    lambda_labels,
    lex_acyclicity_certificate,
    observation_checks,
    orbit_counting_holds,
)
from .test_flow import grid_geometry
from .test_metamorphic import (
    NO_COVER_GADGET,
    SIX_CYCLE,
    assert_flow_union,
    assert_gadget_union,
    assert_relabel_invariant,
)
from .witness_reference import reference_backward_greedy, reference_find_causal_flow

pytestmark = pytest.mark.scale

# Each file's expected no-flow reason: None for a flow.
EXPECTED_REASONS = {"g": None, "gadget": "cyclic-D", "sparse": "no-cover"}


@pytest.fixture(scope="module")
def extremal():
    """The extremal k = 5 geometry at n = 40000 and its path cover, as generated."""
    return generate_extremal(ExtremalPartition((8000,) * 5))


def sparse_data() -> dict:
    """120000 random edges on 40000 vertices with 5 random inputs and 5 random outputs, as file data."""
    rng = random.Random(40)
    n, edges = 40000, set()
    while len(edges) < 120000:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))

    def name(vs):
        return [str(v) for v in vs]

    return {
        "vertices": name(range(n)),
        "edges": [name(e) for e in sorted(edges)],
        "inputs": name(rng.sample(range(n), 5)),
        "outputs": name(rng.sample(range(n), 5)),
    }


def gadget_data(g_text: str) -> dict:
    """The file ``g_text`` with the six-cycle a0-b0-a1-b1-a2-b2 added, its a side inputs and its b side outputs."""
    gadget = json.loads(g_text)
    gadget["vertices"] += ["a0", "a1", "a2", "b0", "b1", "b2"]
    gadget["edges"] += [["a0", "b0"], ["a1", "b0"], ["a1", "b1"], ["a2", "b1"], ["a2", "b2"], ["a0", "b2"]]
    gadget["inputs"] += ["a0", "a1", "a2"]
    gadget["outputs"] += ["b0", "b1", "b2"]
    return gadget


@pytest.fixture(scope="module")
def texts(extremal) -> dict[str, str]:
    """The three shared files' texts by name: ``g`` as ``serialize_geometry`` writes it, the others compact."""
    g_text = serialize_geometry(extremal[0])
    return {"g": g_text, "gadget": json.dumps(gadget_data(g_text)), "sparse": json.dumps(sparse_data())}


def test_no_flow_reasons_through_the_entry_point(tmp_path, texts):
    def find_flow(name: str, *flags: str) -> subprocess.CompletedProcess:
        path = tmp_path / f"{name}.json"
        path.write_text(texts[name])
        argv = [sys.executable, "-m", "flowscope", "find-flow", str(path), *flags]
        return subprocess.run(argv, capture_output=True, text=True, timeout=120)

    for name, reason in EXPECTED_REASONS.items():
        proc = find_flow(name, "--porcelain")
        assert (proc.returncode, proc.stdout) == (
            (0, "VERDICT: flow-found\n") if reason is None else (1, f"VERDICT: no-flow reason={reason}\n")
        ), proc.stderr
    # The cycle and the obstruction are named in the six-cycle's labels.
    proc = find_flow("gadget")
    report = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert "cycle witness: a0 -> a1 -> a2" in report, report
    assert "obstruction: a0 a1 a2" in report, report


@pytest.mark.parametrize("name", [*EXPECTED_REASONS, "grid 200x200"])
def test_greedy_matches_its_frozen_reference(texts, name):
    """The count-only greedy and the verdict against ``tests.witness_reference``'s count-and-XOR greedy."""
    geom = grid_geometry(200, 200) if name.startswith("grid") else load_geometry(texts[name])
    assert _backward_greedy(geom) == reference_backward_greedy(geom)
    result = find_causal_flow(geom)
    assert result == reference_find_causal_flow(geom)
    assert result.reason == EXPECTED_REASONS.get(name)


def test_metamorphic_relations_on_the_shared_geometry(texts):
    geom = load_geometry(texts["g"])
    assert assert_relabel_invariant(geom, random.Random(40000)).status == "found"
    assert_gadget_union(geom, SIX_CYCLE)
    assert_gadget_union(geom, NO_COVER_GADGET)
    assert_flow_union(geom, geom)


def test_lemma_oracles_on_extremal_k5(extremal):
    geom, cover = extremal
    assert lex_acyclicity_certificate(geom, cover)
    assert observation_checks(geom, cover)
    assert orbit_counting_holds(geom, find_causal_flow(geom).flow, tight=True)
    assert len(classify_arcs(geom, cover)) == sum(1 for _ in iter_influence_arcs(geom, cover_pairs(cover)))
    for i, j in combinations(range(1, 6), 2):
        labels = lambda_labels(geom, cover, i, j)
        top = len(cover.paths[i - 1]) + len(cover.paths[j - 1])
        assert len(set(labels)) == len(labels) and min(labels) >= 2 and max(labels) <= top, (i, j)


def test_greedy_returns_the_unique_flow_on_extremal_k5(extremal):
    """|I| = |O|, so the flow is unique: the greedy must return the cover's (see ``tests/test_extremal.py``)."""
    geom, cover = extremal
    assert find_causal_flow(geom).flow.successor.pairs == tuple(sorted(cover_pairs(cover)))
