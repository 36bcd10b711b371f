"""Eve's attractor and the solver that is pure attractor work.

The attractor of a target set is everything from which Eve can force the
token into the set.  `_attract` computes it backwards with per-vertex
successor counters, touching every edge at most once; the level sweep of
`product.solve_fpt` runs the same kernel once per mask.  Both read Eve's
positional move off the kernel: at each Eve vertex won, the successor that
won it, which was won one step closer to the targets.  Adam's move rule
lives here too: `_escape` plays his first successor that Eve does not win.
The dense route, `compress_adam` and `solve_singleton` call it; the level
sweep applies the same rule inline to its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import UnsupportedInputError
from .model import Arena, Game, Owner
from .strategies import FiniteMemoryStrategy, SolveResult, identity_memory


@dataclass(frozen=True)
class AttractorResult:
    """`moves` maps each Eve vertex of the attractor outside the targets
    to the successor that won it.  `ops` counts predecessor-edge
    relaxations (at most the edge count)."""

    attractor: frozenset[int]
    moves: dict[int, int]
    ops: int


def _attract(pred: Sequence[Sequence[int]], need: list[int], won: list[int]) -> tuple[dict[int, int], int]:
    """Grow `won`, the won vertices in the order won, which is also the
    FIFO queue.  `need[u]` counts the won successors u still lacks: 1 at
    an Eve vertex, the successor count at an Adam one, 0 once won or out
    of play, negative when u can never be won (still relaxed, never won).
    Returns the successor that completed each vertex won here, and the
    relaxation count.  FIFO order wins vertices layer by layer, so the
    successor that completed u was won a layer closer to the targets."""
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


def _escape(succ: Sequence[Sequence[int]], L: Sequence[int], v: int, s: int) -> int:
    """Adam's first successor out of a losing (v, s) that Eve does not win:
    bit s of `L[w]` is set when Eve wins the configuration a move to w
    reaches.  A positional caller passes a won flag per vertex and s = 0."""
    for w in succ[v]:
        if not L[w] >> s & 1:
            return w
    raise AssertionError(f"no escape from a losing ({v}, {s:#b})")


def attractor(arena: Arena, targets: Iterable[int]) -> AttractorResult:
    need = list(arena._need)
    won = sorted(set(targets))
    for t in won:
        need[t] = 0
    via, ops = _attract(arena._pred, need, won)
    owner = arena.owner
    moves = {u: w for u, w in via.items() if owner[u] is Owner.EVE}
    return AttractorResult(frozenset(won), moves, ops)


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
    eve = FiniteMemoryStrategy(Owner.EVE, identity_memory(region), lambda v, s: None)
    return SolveResult(
        method="opponent",
        eve_region=region,
        adam_region=frozenset(range(arena.n)) - region,
        eve_strategy=eve,
        adam_strategy=None,
        stats={"ops": ops, "attractor_sizes": sizes},
    )
