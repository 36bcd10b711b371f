"""Subset memory, the two product solvers, and the antichain compression.

The solver tracks which color sets a play has visited.  That memory is a
k-bit mask, the product of arena and memory is an ordinary reachability
game whose targets are the full-mask configurations, and the attractor of
those targets decides every vertex at once.  The product is never
materialized.  `solve_fpt` takes the dense route (`_solve_dense`) when
its n * 2^k configurations fit in `MAX_CONFIGS`: per vertex one int of
2^k bits, bit s set when Eve wins (v, s).  An edge into w maps each mask
s to s | colors(w), one shift step per color of w, so the attractor is a
worklist fixpoint of ORs and ANDs over those ints.  Otherwise it takes
the level sweep (`_solve_sweep`), which allocates only the masks a play
reaches.  `compress_adam` always runs the dense kernel.  Eve's winning
strategy lives on the non-full masks (at most 2^k - 1 states); Adam's
winning strategy compresses further, onto per-vertex antichains of masks
(at most C(k, floor(k/2)) states).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import reduce
from operator import and_, or_

from .attractor import _attract
from .errors import UnsupportedInputError
from .model import DEFAULT_COLOR_CAP, Game, Objective, Owner
from .strategies import (
    FiniteMemoryStrategy,
    MemoryStructure,
    SolveResult,
)

# The dense kernel's limit on n * 2^k configurations: above it
# `solve_fpt` takes the sweep, and `compress_adam` refuses the game.
MAX_CONFIGS = 1 << 22


def subset_memory(objective: Objective) -> MemoryStructure:
    """Memory whose state is the bitmask of color sets visited so far.

    The state after an edge folds in the target vertex's colors.  The
    initial state is the start vertex's own colors, per vertex, so the
    same structure serves plays from anywhere.
    """
    mask = objective.mask
    initial = {v: mask[v] for v in range(len(mask))}
    return MemoryStructure(1 << objective.k, initial, lambda s, u, w: s | mask[w])


def _bits(x: int) -> list[int]:
    """The set bits of x, ascending."""
    return [i for i, c in enumerate(bin(x)[:1:-1]) if c == "1"]


def _color_steps(game: Game) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """M[i], whose set bits are the masks holding color i, and per vertex
    the (M[i], 2^i) shift steps of its colors."""
    k = game.k
    ones = (1 << (1 << k)) - 1
    M = [ones // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(k)]
    return M, [[(M[i], 1 << i) for i in range(k) if c >> i & 1] for c in game.objective.mask]


def _image(S: int, steps: list[tuple[int, int]]) -> int:
    """{s | c : s in S} for the colors c of `steps`."""
    for m, d in steps:
        S = (S & m) | (S & ~m) << d
    return S


def _dense_win(game: Game, steps: list[list[tuple[int, int]]]) -> tuple[list[int], list[int], list]:
    """Eve's won masks W[v] at every vertex, over all 2^k masks.

    A worklist fixpoint from W[v] = {full}.  L[w] = {s : s | colors(w) in
    W[w]} is what a predecessor wins by moving to w: an Eve vertex ORs it
    over its successors, an Adam vertex ANDs it.  Returns W, the final L,
    and per Eve vertex the (masks, successor) pairs in the order won: a
    move recorded there lands on a configuration won earlier.
    """
    arena = game.arena
    n = arena.n
    top = 1 << game.objective.full_mask
    succ, pred = arena.succ, arena._pred
    eve = [o is Owner.EVE for o in arena.owner]
    W = [top] * n
    L = [0] * n  # sound: every vertex is queued, so its L gets computed
    won: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    queue = list(range(n))
    while queue:
        w = queue.pop()
        lw = W[w]
        for m, d in steps[w]:
            hi = lw & m
            lw = hi | hi >> d
        L[w] = lw
        for u in pred[w]:
            new = (lw if eve[u] else reduce(and_, [L[x] for x in succ[u]])) & ~W[u]
            if new:
                if eve[u]:
                    won[u].append((new, w))
                W[u] |= new
                queue.append(u)
    return W, L, won


def _escape(succ: Sequence[Sequence[int]], L: Sequence[int], v: int, s: int) -> int:
    """Adam's first successor out of a losing (v, s) that Eve does not win."""
    return next(w for w in succ[v] if not L[w] >> s & 1)


@dataclass(frozen=True, eq=False)
class _LazyMoves(Mapping):
    """Moves computed on lookup.  Bit s of `held[v]` says (v, s) holds the
    move `find(v, s)`; `masks[state]` is a memory state's mask and
    `index` the inverse."""

    held: list[int]
    find: Callable[[int, int], int]
    masks: Sequence[int]
    index: Mapping[int, int]

    def __getitem__(self, key: tuple[int, int]) -> int:
        v, state = key
        if 0 <= v < len(self.held) and 0 <= state < len(self.masks):
            if self.held[v] >> self.masks[state] & 1:
                return self.find(v, self.masks[state])
        raise KeyError(key)

    def __iter__(self):
        return ((v, self.index[s]) for v, bits in enumerate(self.held) for s in _bits(bits))

    def __len__(self) -> int:
        return sum(bits.bit_count() for bits in self.held)


def solve_fpt(game: Game, cap: int = DEFAULT_COLOR_CAP) -> SolveResult:
    """Decide every vertex by reachability to the full-mask configurations.

    The dense route serves games whose n * 2^k configurations fit in
    `MAX_CONFIGS`, the level sweep larger ones; `stats["route"]` names
    the one taken.  Both give the same regions, other stats and Adam
    moves, and Eve moves on the same (vertex, state) pairs.  Eve's
    strategy replays the moves recorded as her configurations were won,
    on a memory of the non-full masks that occur; Adam's keeps the play
    outside the attractor, on the raw subset memory.  Each strategy has
    initial states only on its own player's region.
    """
    if game.k > cap:
        raise UnsupportedInputError(f"{game.k} color sets exceed the bitmask cap of {cap}")
    dense = game.arena.n << game.k <= MAX_CONFIGS
    return _solve_dense(game) if dense else _solve_sweep(game)


def _solve_dense(game: Game) -> SolveResult:
    """`solve_fpt` by `_dense_win`, with the reached masks R[v] as a
    forward closure of images."""
    t0 = time.perf_counter()
    arena = game.arena
    n, succ = arena.n, arena.succ
    vm = game.objective.mask
    full = game.objective.full_mask
    top = 1 << full
    _, steps = _color_steps(game)
    W, L, won = _dense_win(game, steps)
    # The full mask is absorbing: reached, never expanded.
    R = [1 << c for c in vm]
    queue = list(range(n))
    while queue:
        u = queue.pop()
        for w in succ[u]:
            add = _image(R[u] & ~top, steps[w]) & ~R[w]
            if add:
                R[w] |= add
                queue.append(w)
    Rp = [r & ~top for r in R]
    # The sweep's relaxation count off the final sets: it relaxes an Eve
    # configuration once if she wins it with no winning jump, an Adam one
    # once per won in-level target.  sup[w] holds the masks with no jump into w.
    sup = [_image((top << 1) - 1, st) for st in steps]
    eve = [o is Owner.EVE for o in arena.owner]
    ops = 0
    for u in range(n):
        if eve[u]:
            jumps = reduce(or_, [L[w] & ~sup[w] for w in succ[u]])
            ops += (Rp[u] & W[u] & ~jumps).bit_count()
        else:
            ops += sum((Rp[u] & sup[w] & W[w]).bit_count() for w in succ[u])
    idx = {s: i for i, s in enumerate(_bits(reduce(or_, Rp)) or [full])}
    masks = range(full + 1)
    eve_moves = _LazyMoves(
        [r & W[v] if eve[v] else 0 for v, r in enumerate(Rp)],
        lambda v, s: next(w for got, w in won[v] if got >> s & 1), list(idx), idx,
    )
    adam_moves = _LazyMoves(
        [0 if eve[v] else r & ~W[v] for v, r in enumerate(Rp)],
        lambda v, s: _escape(succ, L, v, s), masks, masks,
    )
    edges = sum(r.bit_count() * len(succ[v]) for v, r in enumerate(Rp))
    counts = {"configs": sum(r.bit_count() for r in R), "product_edges": edges, "ops": ops}
    eve_region = frozenset(v for v in range(n) if W[v] >> vm[v] & 1)
    return _fpt_result(game, t0, "dense", eve_region, idx, eve_moves, adam_moves, counts)


def _solve_sweep(game: Game) -> SolveResult:
    """`solve_fpt` by forward discovery of one level per reached mask,
    then a sweep over the levels in descending popcount order.  A jump,
    an edge that adds colors, lands in a larger mask, so it lands in a
    level already solved; a level's vertices carry only colors its mask
    holds, so each level is one pass of `attractor`'s kernel, `_attract`,
    over the base arena.
    """
    t0 = time.perf_counter()
    arena = game.arena
    n, succ = arena.n, arena.succ
    vm = game.objective.mask
    full = game.objective.full_mask
    live: dict[int, bytearray] = {}
    verts: dict[int, list[int]] = {}
    buckets: list[list[int]] = [[] for _ in range(game.k + 1)]

    def reach(s: int, w: int) -> None:
        row = live.get(s)
        if row is None:
            row = live[s] = bytearray(n)
            verts[s] = []
            buckets[s.bit_count()].append(s)
        if not row[w]:
            row[w] = 1
            verts[s].append(w)

    for v in range(n):
        reach(vm[v], v)
    levels: list[tuple[int, list[int]]] = []
    n_edges = 0
    for bucket in buckets:
        for s in bucket:
            vs = verts[s]
            levels.append((s, vs))
            i = 0
            while s != full and i < len(vs):  # the full level is absorbing
                v = vs[i]
                i += 1
                n_edges += len(succ[v])
                for w in succ[v]:
                    reach(s | vm[w], w)

    idx = {s: i for i, s in enumerate(sorted(s for s, _ in levels if s != full) or [full])}
    pred = arena._pred
    eve = [o is Owner.EVE for o in arena.owner]
    win: dict[int, bytearray] = {}
    eve_moves: dict[tuple[int, int], int] = {}
    ops = 0
    for s, vs in reversed(levels):
        won = vs  # the full level is won outright
        if s != full:
            si, need, won = idx[s], [0] * n, []
            # Fold in the jumps, then attract within the level.  An Eve
            # configuration wins outright on a winning jump; an Adam one
            # with a losing jump never wins (need -1), and one whose every
            # successor jumps to a win is won before the kernel starts.
            for v in vs:
                if eve[v]:
                    for w in succ[v]:
                        s2 = s | vm[w]
                        if s2 != s and win[s2][w]:
                            eve_moves[(v, si)] = w
                            won.append(v)
                            break
                    else:
                        need[v] = 1
                else:
                    for w in succ[v]:
                        s2 = s | vm[w]
                        if s2 == s:
                            need[v] += 1
                        elif not win[s2][w]:
                            need[v] = -1
                            break
                    if not need[v]:
                        won.append(v)
            via, level_ops = _attract(pred, need, won)
            ops += level_ops
            eve_moves.update(((u, si), w) for u, w in via.items() if eve[u])
        wrow = win[s] = bytearray(n)
        for v in won:
            wrow[v] = 1
    # Adam's first escape from each losing Adam configuration.
    adam_moves = {
        (v, s): next(w for w in succ[v] if not win[s | vm[w]][w])
        for s, vs in levels
        for v in vs
        if not eve[v] and not win[s][v]
    }
    counts = {"configs": sum(len(x) for _, x in levels), "product_edges": n_edges, "ops": ops}
    eve_region = frozenset(v for v in range(n) if win[vm[v]][v])
    return _fpt_result(game, t0, "sweep", eve_region, idx, eve_moves, adam_moves, counts)


def _fpt_result(
    game: Game, t0: float, route: str, eve_region: frozenset[int], idx: dict[int, int],
    eve_moves: Mapping, adam_moves: Mapping, counts: dict[str, int],
) -> SolveResult:
    """Both routes' strategies and stats.  `idx` numbers Eve's memory
    states: the non-full masks that occur, ascending, or one idle state
    when none does."""
    vm = game.objective.mask
    adam_region = frozenset(range(game.arena.n)) - eve_region

    def eve_update(s: int, u: int, w: int, _m=list(idx), _i=idx) -> int:
        t = _i.get(_m[s] | vm[w])
        return s if t is None else t

    eve_initial = {v: idx.get(vm[v], 0) for v in sorted(eve_region)}
    eve_mem = MemoryStructure(len(idx), eve_initial, eve_update)
    initial = {v: vm[v] for v in sorted(adam_region)}
    mem = replace(subset_memory(game.objective), initial=initial)
    return SolveResult(
        method="fpt",
        eve_region=eve_region,
        adam_region=adam_region,
        eve_strategy=FiniteMemoryStrategy(Owner.EVE, eve_mem, eve_moves),
        adam_strategy=FiniteMemoryStrategy(Owner.ADAM, mem, adam_moves),
        stats={
            "k": game.k,
            **counts,
            "eve_states": eve_mem.states,
            "adam_states": mem.states,
            "route": route,
            "seconds": time.perf_counter() - t0,
        },
    )


def _dense_antichains(game: Game) -> tuple[list[tuple[int, ...]], list[int]]:
    """Per vertex, the maximal masks of Adam's region over every mask,
    ascending, read off the dense kernel, and the kernel's L for Adam's
    escapes.  With A the masks Adam wins at v, (A & M[i]) >> 2^i holds
    the masks one color i below a mask of A: A is downward closed when
    each lies inside A, and its maximal masks are those in none of them."""
    M, steps = _color_steps(game)
    W, L, _ = _dense_win(game, steps)
    ones = (1 << (1 << game.k)) - 1
    rows = []
    for v, won in enumerate(W):
        lost = ones & ~won
        below = [(lost & m) >> (1 << i) for i, m in enumerate(M)]
        for i, down in enumerate(below):
            t = (down & ~lost).bit_length() - 1
            assert t < 0, (
                f"region holds (vertex {v}, mask {t | 1 << i:#b}) but not mask {t:#b}"
            )
        rows.append(tuple(_bits(lost & ~reduce(or_, below, 0))))
    return rows, L


def compress_adam(game: Game) -> FiniteMemoryStrategy:
    """Adam strategy over antichain indices instead of raw masks.

    State i at vertex v stands for the i-th maximal mask of Adam's region
    at v, an overapproximation of the true visited mask that his region
    still contains.  Updates re-maximize after each edge; moves replay
    the escape of the represented configuration.  State count is
    max_v p(v), at most C(k, floor(k/2)).

    Adam's region is downward closed only over the full product, so this
    runs the dense kernel of `solve_fpt` over every mask, and refuses a
    game whose n * 2^k configurations exceed `MAX_CONFIGS` before
    allocating any of them.
    """
    arena = game.arena
    n = arena.n
    k = game.k
    if k > DEFAULT_COLOR_CAP:
        raise UnsupportedInputError(f"{k} color sets exceed the bitmask cap of {DEFAULT_COLOR_CAP}")
    if n << k > MAX_CONFIGS:
        raise UnsupportedInputError(
            f"full product needs {n << k} configurations, above the limit of {MAX_CONFIGS}"
        )
    mask = game.objective.mask
    rows, L = _dense_antichains(game)

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
                moves[(u, i)] = _escape(arena.succ, L, u, s)

    # Adam's region is downward closed, so v lies in it exactly when a
    # maximal mask of its row holds colors(v).
    initial: dict[int, int] = {}
    for v in range(n):
        for j, s2 in enumerate(rows[v]):
            if mask[v] | s2 == s2:
                initial[v] = j
                break
    states = max(1, max(map(len, rows), default=0))
    memory = MemoryStructure.from_table(states, initial, update)
    return FiniteMemoryStrategy(Owner.ADAM, memory, moves)
