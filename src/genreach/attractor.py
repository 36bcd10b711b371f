"""Eve's attractor and the solver that is pure attractor work.

The attractor of a target set is everything from which Eve can force the
token into the set.  `_attract` computes it backwards with per-vertex
successor counters, touching every edge at most once; the level sweep of
`product.solve_fpt` runs the same kernel once per mask.  Ranks record how
many steps the forcing needs; they drive positional move extraction (step
to any successor of strictly smaller rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _attract(pred: Sequence[Sequence[int]], need: list[int], won: list[int]) -> tuple[dict[int, int], int]:
    """Grow `won`, the won vertices in the order won, which is also the
    FIFO queue.  `need[u]` counts the won successors u still lacks: 1 at
    an Eve vertex, the successor count at an Adam one, 0 once won or out
    of play, negative when u can never be won (still relaxed, never won).
    Returns the successor that completed each vertex won here, and the
    relaxation count.  FIFO order wins vertices by non-decreasing rank."""
    via: dict[int, int] = {}
    ops = 0
    i = 0
    while i < len(won):
        w = won[i]
        i += 1
        for u in pred[w]:
            if need[u]:
                ops += 1
                need[u] -= 1
                if not need[u]:
                    via[u] = w
                    won.append(u)
    return via, ops


def attractor(arena: Arena, targets: Iterable[int]) -> AttractorResult:
    n = arena.n
    eve = [o is Owner.EVE for o in arena.owner]
    need = [1 if eve[v] else len(arena.succ[v]) for v in range(n)]
    won = sorted(set(targets))
    for t in won:
        need[t] = 0
    via, ops = _attract(arena._pred, need, won)
    rank: list[int | None] = [None] * n
    for u in won:
        rank[u] = rank[via[u]] + 1 if u in via else 0

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
    return AttractorResult(frozenset(won), tuple(rank), moves, ops)


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
