"""Strongly connected components, for the 2-SAT solver."""

from __future__ import annotations

from typing import Sequence


def strongly_connected_components(
    succ: Sequence[Sequence[int]],
) -> tuple[int, list[int]]:
    """Tarjan's algorithm, iteratively.

    Returns (count, comp) where comp[v] is the component id of v.  Ids are
    assigned in completion order, so comp[u] >= comp[v] whenever there is
    an edge u -> v across components (reverse topological order).
    """
    n = len(succ)
    UNSEEN = -1
    index = [UNSEEN] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [UNSEEN] * n
    stack: list[int] = []
    next_index = 0
    ncomp = 0

    for root in range(n):
        if index[root] != UNSEEN:
            continue
        # Work entries are (vertex, position in its successor list).
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(i, len(succ[v])):
                w = succ[v][j]
                if index[w] == UNSEEN:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return ncomp, comp
