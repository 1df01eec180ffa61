"""The recursive exhaustive oracle, kept as the reference the iterative one is tested against.

At every node of its search it rebuilds the whole influencing digraph of
the partial assignment and runs a colouring DFS over it, and it recurses
once per measured vertex, so it is only usable at small n.  Its candidate
partners come from ``tests.conftest.candidate_lists``; it shares only the
final ranking with ``flowscope.flow``, as the package's oracle does.
"""

from __future__ import annotations

from flowscope import CausalFlow, Geometry, OracleBoundError, SuccessorFunction
from flowscope.flow import DEFAULT_ORACLE_BOUND, _influence_order

from .conftest import candidate_lists, successor_function


def reference_brute_force_flow(geom: Geometry, *, bound: int = DEFAULT_ORACLE_BOUND) -> CausalFlow | None:
    """Exhaustive oracle: try every injective f along edges, smallest first.

    Partial assignments already containing a digraph cycle are pruned,
    which is sound because extending f only adds arcs.
    """
    n = geom.vertex_count
    if n > bound:
        raise OracleBoundError(f"instance has {n} vertices; oracle bound is {bound}")
    if n == 0:
        return CausalFlow(SuccessorFunction(()), ())
    measured, candidates = geom.measured, candidate_lists(geom)
    adj = geom.graph.adjacency
    succ: dict[int, int] = {}
    used: set[int] = set()

    def influence_lists() -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(n)]
        for x, fx in succ.items():
            out[x].append(fx)
            out[x].extend(y for y in adj[fx] if y != x)
        return out

    def has_cycle(out: list[list[int]]) -> bool:
        color = [0] * n  # 0 white, 1 on stack, 2 done
        for root in range(n):
            if color[root] != 0:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            color[root] = 1
            while stack:
                u, idx = stack[-1]
                if idx < len(out[u]):
                    stack[-1] = (u, idx + 1)
                    w = out[u][idx]
                    if color[w] == 1:
                        return True
                    if color[w] == 0:
                        color[w] = 1
                        stack.append((w, 0))
                else:
                    color[u] = 2
                    stack.pop()
        return False

    def search(i: int) -> bool:
        if i == len(measured):
            return True
        x = measured[i]
        for y in candidates[i]:
            if y in used:
                continue
            succ[x] = y
            used.add(y)
            if not has_cycle(influence_lists()) and search(i + 1):
                return True
            del succ[x]
            used.discard(y)
        return False

    if not search(0):
        return None

    f = successor_function(n, succ.items())
    ranks, _cycle = _influence_order(geom, f.image)
    return CausalFlow(f, ranks)
