"""The lexicographic enumeration of saturating assignments that the sweeps rely on."""

from __future__ import annotations

from itertools import permutations

from .conftest import saturating_assignments


def test_enumeration_complete_bipartite_is_all_permutations():
    candidates = [[0, 1, 2]] * 3
    got = list(saturating_assignments(candidates))
    assert got == sorted(set(permutations(range(3))))


def test_enumeration_lexicographic_order():
    candidates = [[0, 2], [0, 1], [1, 2]]
    got = list(saturating_assignments(candidates))
    assert got == sorted(got)
    for assignment in got:
        assert len(set(assignment)) == len(assignment)
        assert all(y in candidates[i] for i, y in enumerate(assignment))


def test_enumeration_prunes_infeasible_branches():
    # position 0 may not take right vertex 0: that starves position 1
    candidates = [[0, 5], [0]]
    assert list(saturating_assignments(candidates)) == [(5, 0)]


def test_enumeration_unsaturable_yields_nothing():
    assert list(saturating_assignments([[0], [0]])) == []


def test_enumeration_empty_problem_yields_empty_assignment():
    assert list(saturating_assignments([])) == [()]
