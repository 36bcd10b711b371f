"""Eve's attractor and the solver that is pure attractor work.

The attractor of a target set is everything from which Eve can force the
token into the set.  It is computed backwards with per-vertex successor
counters, touching every edge at most once.  Ranks record how many steps
the forcing needs; they drive positional move extraction (step to any
successor of strictly smaller rank).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import UnsupportedInputError
from .model import Arena, Game, Owner
from .strategies import FiniteMemoryStrategy, SolveResult, identity_memory


@dataclass(frozen=True)
class AttractorResult:
    """`rank[v]` is None outside the attractor.  `moves` maps each Eve
    vertex of positive rank to its lowest-index rank-decreasing successor.
    `ops` counts predecessor-edge relaxations (at most the edge count)."""

    attractor: frozenset[int]
    rank: tuple[int | None, ...]
    moves: dict[int, int]
    ops: int


def _pred_lists(arena: Arena) -> list[list[int]]:
    pred: list[list[int]] = [[] for _ in range(arena.n)]
    for u in range(arena.n):
        for v in arena.succ[u]:
            pred[v].append(u)
    return pred


def attractor(arena: Arena, targets: Iterable[int]) -> AttractorResult:
    n = arena.n
    rank: list[int | None] = [None] * n
    counter = [len(arena.succ[v]) for v in range(n)]
    pred = _pred_lists(arena)
    eve = [o is Owner.EVE for o in arena.owner]
    queue = deque()
    for t in sorted(set(targets)):
        rank[t] = 0
        queue.append(t)
    ops = 0
    # FIFO order pops vertices by non-decreasing rank, so the popped
    # neighbor below is a minimum-rank successor (Eve's case) or the
    # maximum-rank one (Adam's counter case).
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if rank[u] is not None:
                continue
            ops += 1
            if eve[u]:
                rank[u] = rank[v] + 1
                queue.append(u)
            else:
                counter[u] -= 1
                if counter[u] == 0:
                    rank[u] = rank[v] + 1
                    queue.append(u)

    moves: dict[int, int] = {}
    for u in range(n):
        ru = rank[u]
        if not eve[u] or ru is None or ru == 0:
            continue
        for w in arena.succ[u]:
            rw = rank[w]
            if rw is not None and rw < ru:
                moves[u] = w
                break
    inside = frozenset(v for v in range(n) if rank[v] is not None)
    return AttractorResult(inside, tuple(rank), moves, ops)


def avoid_moves(arena: Arena, result: AttractorResult) -> dict[int, int]:
    """For each Adam vertex outside Eve's attractor, the lowest-index
    successor that is also outside.  The complement is closed for Adam,
    so one always exists."""
    moves: dict[int, int] = {}
    for v in range(arena.n):
        if arena.owner[v] is not Owner.ADAM or v in result.attractor:
            continue
        for w in arena.succ[v]:
            if w not in result.attractor:
                moves[v] = w
                break
        else:
            raise AssertionError("attractor complement must be closed")
    return moves


def solve_opponent_player(game: Game) -> SolveResult:
    """Games whose every vertex belongs to Adam.

    Eve wins from v exactly when every path from v is dragged through
    every color set, i.e. v lies in all k single-color attractors (which
    degenerate to "all paths reach" sets here).  Eve needs no moves.  No
    Adam strategy is reported: on his region he must commit to a color to
    starve, and no single positional or region-uniform choice works for
    every start, so callers wanting one should use the general solver.
    """
    arena = game.arena
    for v in range(arena.n):
        if arena.owner[v] is not Owner.ADAM:
            raise UnsupportedInputError(
                f"vertex {arena.names[v]!r} belongs to eve"
            )
    region = frozenset(range(arena.n))
    ops = 0
    sizes = []
    for members in game.objective.color_sets:
        attr = attractor(arena, members)
        region &= attr.attractor
        ops += attr.ops
        sizes.append(len(attr.attractor))
    eve = FiniteMemoryStrategy(Owner.EVE, identity_memory(), {})
    return SolveResult(
        method="opponent",
        eve_region=region,
        adam_region=frozenset(range(arena.n)) - region,
        eve_strategy=eve,
        adam_strategy=None,
        stats={"ops": ops, "attractor_sizes": sizes},
    )
