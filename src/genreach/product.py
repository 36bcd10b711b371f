"""Subset memory, the level sweep, and the antichain compression.

The solver tracks which color sets a play has visited.  That memory is a
k-bit mask, the product of arena and memory is an ordinary reachability
game whose targets are the full-mask configurations, and the attractor of
those targets decides every vertex at once.  The product is never
materialized: masks only grow along edges, so it splits into one level
per mask, and one backward sweep (`_sweep`) solves the levels in
descending popcount order, each as a plain attractor pass over the base
arena.  `solve_fpt` sweeps the levels forward discovery reaches;
`compress_adam` sweeps every mask, the full product.  Eve's winning
strategy lives on the non-full masks (at most 2^k - 1 states); Adam's
winning strategy compresses further, onto per-vertex antichains of masks
(at most C(k, floor(k/2)) states).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .attractor import _pred_lists
from .errors import CapExceededError, NotDownwardClosedError
from .model import DEFAULT_COLOR_CAP, Arena, Game, Objective, Owner
from .strategies import (
    FiniteMemoryStrategy,
    MemoryStructure,
    SolveResult,
)

# compress_adam refuses games with more configurations than this.
MAX_CONFIGS = 1 << 22


def subset_memory(
    objective: Objective, cap: int = DEFAULT_COLOR_CAP
) -> MemoryStructure:
    """Memory whose state is the bitmask of color sets visited so far.

    The state after an edge folds in the target vertex's colors.  The
    initial state is the start vertex's own colors, per vertex, so the
    same structure serves plays from anywhere.
    """
    if objective.k > cap:
        raise CapExceededError(
            f"{objective.k} color sets exceed the bitmask cap of {cap}"
        )
    mask = objective.mask
    initial = {v: mask[v] for v in range(len(mask))}
    return MemoryStructure(1 << objective.k, initial, lambda s, u, w: s | mask[w])


def _split_successors(
    arena: Arena, vm: Sequence[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Each successor list split into uncolored and colored targets.

    Edges into uncolored vertices never change the mask, so the sweeps
    skip mask arithmetic on them.
    """
    plain: list[list[int]] = [[] for _ in range(arena.n)]
    colored: list[list[int]] = [[] for _ in range(arena.n)]
    for v in range(arena.n):
        for w in arena.succ[v]:
            (colored[v] if vm[w] else plain[v]).append(w)
    return plain, colored


def _sweep(
    game: Game,
    plain: list[list[int]],
    colored: list[list[int]],
    levels: Iterable[tuple[int, Sequence[int]]],
    live: Mapping[int, bytearray],
    eve_state: Mapping[int, int],
) -> tuple[dict[int, bytearray], dict[tuple[int, int], int], int]:
    """Attractor of the full-mask configurations, one level at a time.

    `levels` holds (mask, vertices) pairs in descending popcount order,
    so every level a mask-changing edge can land in is final before the
    level the edge leaves, and `live[mask][v]` flags the level's vertices.
    Every vertex of a level must carry only colors its mask holds: then
    an edge into a live vertex never jumps, and the in-level pass needs
    no mask arithmetic.  The full level is won outright.  Returns
    `win[mask][v]`, Eve's recorded moves keyed by (vertex,
    eve_state[mask]), and the number of in-level predecessor relaxations.
    """
    arena = game.arena
    n = arena.n
    vm = game.objective.mask
    full = game.objective.full_mask
    pred = _pred_lists(arena)
    eve = [o is Owner.EVE for o in arena.owner]
    win: dict[int, bytearray] = {}
    eve_moves: dict[tuple[int, int], int] = {}
    ops = 0
    for s, vs in levels:
        wrow = bytearray(n)
        win[s] = wrow
        if s == full:
            for v in vs:
                wrow[v] = 1
            continue
        si = eve_state[s]
        lrow = live[s]
        rem = [0] * n
        q: list[int] = []
        # Jumps land in levels already solved; fold their verdicts in
        # first.  An Eve configuration wins outright on a winning jump;
        # an Adam one with a losing jump never wins (sentinel -1), and
        # one whose every successor jumps to a win loses Adam the level
        # before the in-level pass even starts.
        for v in vs:
            if eve[v]:
                for w in colored[v]:
                    s2 = s | vm[w]
                    if s2 != s and win[s2][w]:
                        wrow[v] = 1
                        eve_moves[(v, si)] = w
                        q.append(v)
                        break
            else:
                r = len(plain[v])
                for w in colored[v]:
                    s2 = s | vm[w]
                    if s2 == s:
                        r += 1
                    elif not win[s2][w]:
                        r = -1
                        break
                rem[v] = r
                if r == 0:
                    wrow[v] = 1
                    q.append(v)
        # In-level attractor over base predecessor lists.  A live target
        # carries its own colors inside the mask, so no predecessor edge
        # can jump; only liveness of the source needs checking.
        i = 0
        while i < len(q):
            w = q[i]
            i += 1
            for u in pred[w]:
                if not lrow[u] or wrow[u]:
                    continue
                ops += 1
                if eve[u]:
                    wrow[u] = 1
                    eve_moves[(u, si)] = w
                    q.append(u)
                else:
                    r = rem[u] - 1
                    rem[u] = r
                    if r == 0:
                        wrow[u] = 1
                        q.append(u)
    return win, eve_moves, ops


def _escapes(
    arena: Arena,
    vm: Sequence[int],
    win: Mapping[int, bytearray],
    levels: Iterable[tuple[int, Sequence[int]]],
) -> dict[tuple[int, int], int]:
    """Adam's first escape from each losing Adam configuration of
    `levels`, (mask, vertices) pairs: the first successor whose
    configuration Eve does not win.  Keyed by (vertex, mask)."""
    succ = arena.succ
    adam = [o is Owner.ADAM for o in arena.owner]
    escapes: dict[tuple[int, int], int] = {}
    for s, vs in levels:
        wrow = win[s]
        for v in vs:
            if adam[v] and not wrow[v]:
                for w in succ[v]:
                    if not win[s | vm[w]][w]:
                        escapes[(v, s)] = w
                        break
                else:
                    raise AssertionError("losing configuration with no escape")
    return escapes


def solve_fpt(game: Game, cap: int = DEFAULT_COLOR_CAP) -> SolveResult:
    """Decide every vertex by reachability to the full-mask configurations.

    Forward discovery fills the reachable levels in ascending popcount
    order, keyed by mask so that only levels it reaches cost memory, then
    `_sweep` solves them in descending order.  Both regions are total
    because discovery starts from (v, colors(v)) for every v.  Eve's
    strategy replays the moves recorded by the sweep, on a memory
    holding only the non-full masks that actually occur; Adam's strategy
    keeps the play outside the attractor, on the raw subset memory.
    Each strategy has initial states only on its own player's region, so
    it never starts where it holds no winning moves.
    """
    t0 = time.perf_counter()
    arena = game.arena
    n = arena.n
    k = game.k
    if k > cap:
        raise CapExceededError(f"{k} color sets exceed the bitmask cap of {cap}")
    vm = game.objective.mask
    full = game.objective.full_mask
    plain, colored = _split_successors(arena, vm)

    live: dict[int, bytearray] = {}
    verts: dict[int, list[int]] = {}
    buckets: list[list[int]] = [[] for _ in range(k + 1)]
    for v in range(n):
        s = vm[v]
        row = live.get(s)
        if row is None:
            row = live[s] = bytearray(n)
            verts[s] = []
            buckets[s.bit_count()].append(s)
        row[v] = 1
        verts[s].append(v)

    # Forward discovery.  A jump lands in a strictly larger mask, so by
    # the time a bucket runs its levels are fully seeded and a level's
    # worklist only grows through same-mask edges.  The full level is
    # absorbing and never expanded.
    levels: list[tuple[int, list[int]]] = []
    n_edges = 0
    for p in range(k + 1):
        for s in buckets[p]:
            vs = verts[s]
            levels.append((s, vs))
            if s == full:
                continue
            lrow = live[s]
            i = 0
            while i < len(vs):
                v = vs[i]
                i += 1
                pv = plain[v]
                cv = colored[v]
                n_edges += len(pv) + len(cv)
                for w in pv:
                    if not lrow[w]:
                        lrow[w] = 1
                        vs.append(w)
                for w in cv:
                    s2 = s | vm[w]
                    row = live.get(s2)
                    if row is None:
                        row = live[s2] = bytearray(n)
                        verts[s2] = []
                        buckets[s2.bit_count()].append(s2)
                    if not row[w]:
                        row[w] = 1
                        verts[s2].append(w)

    # Eve's memory holds only the non-full masks that occur, or one idle
    # state when none does.
    live_masks = sorted(s for s, _ in levels if s != full) or [full]
    idx = {s: i for i, s in enumerate(live_masks)}
    win, eve_moves, ops = _sweep(game, plain, colored, reversed(levels), live, idx)
    adam_moves = _escapes(arena, vm, win, reversed(levels))

    eve_region = frozenset(v for v in range(n) if win[vm[v]][v])
    adam_region = frozenset(range(n)) - eve_region

    def eve_update(s: int, u: int, w: int, _m=live_masks, _i=idx) -> int:
        t = _i.get(_m[s] | vm[w])
        return s if t is None else t

    eve_mem = MemoryStructure(
        len(live_masks), {v: idx.get(vm[v], 0) for v in sorted(eve_region)}, eve_update
    )
    mem = replace(
        subset_memory(game.objective, cap=cap),
        initial={v: vm[v] for v in sorted(adam_region)},
    )
    eve_strategy = FiniteMemoryStrategy(Owner.EVE, eve_mem, eve_moves)
    adam_strategy = FiniteMemoryStrategy(Owner.ADAM, mem, adam_moves)
    return SolveResult(
        method="fpt",
        eve_region=eve_region,
        adam_region=adam_region,
        eve_strategy=eve_strategy,
        adam_strategy=adam_strategy,
        stats={
            "k": k,
            "configs": sum(len(x) for _, x in levels),
            "product_edges": n_edges,
            "ops": ops,
            "eve_states": eve_mem.states,
            "adam_states": mem.states,
            "seconds": time.perf_counter() - t0,
        },
    )


@dataclass(frozen=True)
class AntichainTable:
    """Per-vertex maximal masks of Adam's product region, ascending."""

    k: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return max((len(row) for row in self.rows), default=0)


def antichain_table(
    adam_region: Iterable[tuple[int, int]], k: int, n: int
) -> AntichainTable:
    """Maximal masks per vertex of a (vertex, mask) region.

    The region must be downward closed in the mask coordinate; a solver
    producing anything else is broken, which NotDownwardClosed signals.
    """
    by_vertex: list[set[int]] = [set() for _ in range(n)]
    for v, s in adam_region:
        by_vertex[v].add(s)
    for v, masks in enumerate(by_vertex):
        for s in masks:
            bits = s
            while bits:
                low = bits & -bits
                if s ^ low not in masks:
                    raise NotDownwardClosedError(
                        f"region holds (vertex {v}, mask {s:#b}) but not"
                        f" mask {s ^ low:#b}"
                    )
                bits ^= low
    rows = []
    for masks in by_vertex:
        maximal: list[int] = []
        for s in sorted(masks, key=lambda m: (-m.bit_count(), m)):
            if not any(s | t == t for t in maximal):
                maximal.append(s)
        rows.append(tuple(sorted(maximal)))
    return AntichainTable(k, tuple(rows))


def compress_adam(game: Game) -> FiniteMemoryStrategy:
    """Adam strategy over antichain indices instead of raw masks.

    State i at vertex v stands for the i-th maximal mask of Adam's region
    at v, an overapproximation of the true visited mask that his region
    still contains.  Updates re-maximize after each edge; moves replay
    the escape of the represented configuration.  State count is
    max_v p(v), at most C(k, floor(k/2)).

    Adam's region is downward closed only over the full product, so this
    runs the level sweep of `solve_fpt` over every mask, and refuses a
    game whose n * 2^k configurations exceed `MAX_CONFIGS` before
    allocating any of them.
    """
    arena = game.arena
    n = arena.n
    k = game.k
    if k > DEFAULT_COLOR_CAP:
        raise CapExceededError(
            f"{k} color sets exceed the bitmask cap of {DEFAULT_COLOR_CAP}"
        )
    total = n << k
    if total > MAX_CONFIGS:
        raise CapExceededError(
            f"full product needs {total} configurations, above the"
            f" limit of {MAX_CONFIGS}"
        )
    mask = game.objective.mask
    plain, colored = _split_successors(arena, mask)
    masks = sorted(range(1 << k), key=int.bit_count, reverse=True)
    live = {s: bytearray(mask[v] | s == s for v in range(n)) for s in masks}
    levels = [(s, [v for v in range(n) if live[s][v]]) for s in masks]
    # Eve's moves go unused here; a range keys them by the raw mask.
    win, _, _ = _sweep(game, plain, colored, levels, live, range(1 << k))
    # A configuration whose mask lacks its vertex's colors is no edge's
    # target, so it is left out of the sweep; every successor lies in a
    # swept configuration, and one look at them decides it.
    for s in masks:
        for v in range(n):
            if not live[s][v]:
                won = [win[s | mask[w]][w] for w in arena.succ[v]]
                win[s][v] = any(won) if arena.owner[v] is Owner.EVE else all(won)

    table = antichain_table(
        ((v, s) for s in masks for v in range(n) if not win[s][v]), k, n
    )
    rows = table.rows
    nstates = max(1, table.p)
    # Adam moves only at the represented masks, so only they need escapes.
    escapes = _escapes(arena, mask, win, ((s, (u,)) for u in range(n) for s in rows[u]))

    update: dict[tuple[int, int, int], int] = {}
    moves: dict[tuple[int, int], int] = {}
    for u in range(n):
        row = rows[u]
        for i, s in enumerate(row):
            for w in arena.succ[u]:
                t = s | mask[w]
                for j, s2 in enumerate(rows[w]):
                    if t | s2 == s2:
                        if j != i:
                            update[(i, u, w)] = j
                        break
            if arena.owner[u] is Owner.ADAM:
                moves[(u, i)] = escapes[(u, s)]

    initial: dict[int, int] = {}
    for v in range(n):
        if not win[mask[v]][v]:
            for j, s2 in enumerate(rows[v]):
                if mask[v] | s2 == s2:
                    initial[v] = j
                    break
    memory = MemoryStructure.from_table(nstates, initial, update)
    return FiniteMemoryStrategy(Owner.ADAM, memory, moves)
