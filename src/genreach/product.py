"""The two product solvers and the antichain compression.

The solver tracks which color sets a play has visited.  That memory is a
k-bit mask, the product of arena and memory is an ordinary reachability
game whose targets are the full-mask configurations, and the attractor of
those targets decides every vertex at once.  The product is never
materialized.  `solve_fpt` takes the dense route (`_solve_dense`) when
its n * 2^k configurations fit in `MAX_CONFIGS`: per vertex one int of
2^k bits, bit s set when Eve wins (v, s).  An edge into w maps each mask
s to s | colors(w), one shift step per color of w and none for an
uncolored w, so the attractor is a worklist fixpoint of ORs and ANDs over
those ints, with no complemented int: a set difference is `(x | y) ^ y`.
Each growth queues its vertex; a pop that finds the int its vertex's last
expansion read is stale and costs one compare.
Otherwise it takes the level sweep (`_solve_sweep`), two calls timed as
its two phases: `_discover` visits the masks a play reaches in ascending
order, one row of n bytes each, and the backward sweep solves them.  One
in-level rule serves both: an edge stays in its level if it adds no color.
Discovery refuses a game once its rows and masks would pass `_MAX_SLOTS`
slots, each reached mask counting n for its row plus its own bytes;
beyond those it holds one list slot per reached configuration and a few
hundred bytes per mask.
Both routes find strategy moves on lookup; the sweep re-solves a level
when Eve's moves there are first read.  `compress_adam` always runs the
dense kernel.  Both players' strategies live on the non-full masks that
occur (at most 2^k - 1 states); Adam's compresses further, onto
per-vertex antichains of masks (at most C(k, floor(k/2)) states).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from functools import cache, reduce
from heapq import heappop, heappush
from operator import and_, or_

from .attractor import _attract, _escape
from .errors import UnsupportedInputError
from .model import Game, Owner, _bits
from .strategies import (
    FiniteMemoryStrategy,
    MemoryStructure,
    SolveResult,
    _LazyMoves,
)

# The dense kernel's limit on n * 2^k configurations: above it
# `solve_fpt` takes the sweep, and `compress_adam` refuses the game.
MAX_CONFIGS = 1 << 22
# The sweep's limit on n plus the mask's bytes, summed over masks reached.
_MAX_SLOTS = MAX_CONFIGS << 2


def _color_steps(game: Game) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """M[i], whose set bits are the masks holding color i, and per vertex
    the (M[i], 2^i) shift steps of its colors: one list per distinct
    color mask, shared by the vertices that carry it."""
    k = game.k
    M = []
    for i in range(k):
        # One period, 2^i clear bits then 2^i set bits, doubled up to 2^k.
        m, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width >> k == 0:
            m |= m << width
            width <<= 1
        M.append(m)
    masks = game.objective.mask
    steps = {c: [(M[i], 1 << i) for i in _bits(c)] for c in set(masks)}
    return M, [steps[c] for c in masks]


def _dense_win(game: Game, steps: list[list[tuple[int, int]]]) -> tuple[list[int], list[int], list]:
    """Eve's won masks W[v] at every vertex, over all 2^k masks.

    A worklist fixpoint from W[v] = {full}.  L[w] = {s : s | colors(w) in
    W[w]} is what a predecessor wins by moving to w: an Eve vertex ORs it
    over its successors, an Adam vertex ANDs it.  Returns W, the final L,
    and per Eve vertex the (masks, successor) pairs in the order won: a
    move recorded there lands on a configuration won earlier.

    Each growth of W[w] queues w.  A pop that finds W[w] still the int
    its last expansion read is stale: L[w] is unchanged, and each
    predecessor was checked against it then, an Adam one against its other
    successors' L as they stood (a later change to one of those came with
    its own expansion).  It costs one compare and changes neither W nor
    `won`: 1,194 of criterion 10's 3,649 pops, 2,324 of 6,939.
    """
    arena = game.arena
    n = arena.n
    top = 1 << game.objective.full_mask
    succ, pred = arena.succ, arena._pred
    eve = [o is Owner.EVE for o in arena.owner]
    W = [top] * n
    L = [0] * n  # sound: every vertex is queued, so its L gets computed
    done = [0] * n  # W[w] at w's last expansion; W never holds 0
    won: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    queue = list(range(n))
    while queue:
        w = queue.pop()
        lw = W[w]
        if lw is done[w]:  # stale: no growth since w was last expanded
            continue
        done[w] = lw
        for m, d in steps[w]:
            hi = lw & m
            lw = hi | hi >> d
        L[w] = lw
        for u in pred[w]:
            # An Adam u ANDs L over succ[u], which holds w, so lw bounds it.
            wu = W[u]
            new = (lw | wu) ^ wu
            if new and not eve[u]:
                for x in succ[u]:
                    new &= L[x]
                    if not new:
                        break
            if new:
                if eve[u]:
                    won[u].append((new, w))
                W[u] |= new
                queue.append(u)
    return W, L, won


def _first_won(won: Sequence[Sequence[tuple[int, int]]], v: int, s: int) -> int:
    """Eve's move at a won (v, s): the successor whose win first took s."""
    for got, w in won[v]:
        if got >> s & 1:
            return w
    raise AssertionError(f"no won move at ({v}, {s:#b})")


def solve_fpt(game: Game) -> SolveResult:
    """Decide every vertex by reachability to the full-mask configurations.

    The dense route serves games whose n * 2^k configurations fit in
    `MAX_CONFIGS`, the level sweep larger ones; `stats["route"]` names
    the one taken, and `phases` times its phases: `kernel`, `reach` and
    `stats` on the dense route, `discovery` and `sweep` on the sweep.
    Both give the same regions, other stats and Adam moves, and Eve
    moves on the same (vertex, state) pairs.  Both strategies share one
    memory, the non-full masks that occur: Eve's replays the moves
    recorded as her configurations were won, Adam's keeps the play
    outside the attractor.  Each starts only on its own player's region.
    k has no limit; the sweep refuses a game once n plus the mask's
    bytes, summed over masks reached, exceeds `_MAX_SLOTS`.
    """
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
    t1 = time.perf_counter()
    # The worklist order fixes the pop count, not R.  It stays LIFO, and
    # each growth of R[w] pushes w: criterion 10's games pop 29,562 times
    # at n=2000 and 36,887 at n=4000.  With a FIFO closure, inlined or
    # not, every phase's time grew 2.1-2.4x when the game doubled, and
    # that test's doubled/base ratio had up to 3 of 29 samples over its
    # 2.5 bound.  The first pop of a vertex queued more than once expands
    # its growth; `done[u]` keeps the R[u] that expansion read, and a later
    # pop that finds R[u] still that int is stale, since R only grows, and
    # costs one identity compare: 19,628 of the 29,562 pops and 23,022 of
    # the 36,887.  The full mask is absorbing: reached, never expanded, so
    # an expansion first keeps R[u]'s masks below it.  Then each successor
    # w costs one OR and one compare, plus one shift step per color if w
    # has any (1,565 of criterion 10's 2,000 vertices have none).  No step
    # builds a complemented int: on 2^k bits `x & ~y` first makes a
    # negative int, about twice the cost of the `(x | y) ^ y` used in its
    # place throughout the dense code.  A pop costs 0.36-0.44 us on
    # criterion 10's games (best of seven in each of three processes,
    # 2 vCPU, Python 3.11.7).
    R = [1 << c for c in vm]
    below = top - 1
    done = [0] * n  # R[u] at u's last expansion; R never holds 0
    queue = list(range(n))
    while queue:
        u = queue.pop()
        ru = R[u]
        if ru is done[u]:
            continue
        done[u] = ru
        ru &= below
        for w in succ[u]:
            r = R[w]
            st = steps[w]
            if st:
                S = ru  # {s | colors(w) : s in ru}, a step per color
                for m, d in st:
                    hi = S & m
                    S = hi | (S ^ hi) << d
                S |= r
            else:
                S = ru | r
            if S != r:
                R[w] = S
                queue.append(w)
    Rp = [r & below for r in R]
    t2 = time.perf_counter()
    # The sweep's relaxation count off the final sets: it relaxes an Eve
    # configuration once if she wins it with no winning jump, an Adam one
    # once per won in-level target.  sup[w] holds the masks with no jump
    # into w, the AND of M[i] over its colors i; jump[w] the masks won by
    # a jump into w, stay[w] those won at w with no jump.
    ones = (top << 1) - 1
    sup_of = {c: reduce(and_, (m for m, _ in st), ones) for c, st in dict(zip(vm, steps)).items()}
    sup = [sup_of[c] for c in vm]
    jump = [(lw | s) ^ s for lw, s in zip(L, sup)]
    stay = [s & ww for s, ww in zip(sup, W)]
    eve = [o is Owner.EVE for o in arena.owner]
    ops = 0
    for u in range(n):
        if eve[u]:
            jumps = 0
            for w in succ[u]:
                jumps |= jump[w]
            rw = Rp[u] & W[u]
            ops += ((rw | jumps) ^ jumps).bit_count()
        else:
            ru = Rp[u]
            for w in succ[u]:
                ops += (ru & stay[w]).bit_count()
    idx = {s: i for i, s in enumerate(_bits(reduce(or_, Rp)) or [full])}
    eve_move = lambda v, s: _first_won(won, v, s) if eve[v] and (Rp[v] & W[v]) >> s & 1 else None
    adam_move = lambda v, s: (
        _escape(succ, L, v, s) if not eve[v] and Rp[v] >> s & 1 and not W[v] >> s & 1 else None
    )
    edges = sum(r.bit_count() * len(succ[v]) for v, r in enumerate(Rp))
    counts = {"configs": sum(r.bit_count() for r in R), "product_edges": edges, "ops": ops}
    phases = {"kernel": t1 - t0, "reach": t2 - t1, "stats": time.perf_counter() - t2}
    eve_region = frozenset(v for v in range(n) if W[v] >> vm[v] & 1)
    return _fpt_result(game, t0, "dense", eve_region, idx, eve_move, adam_move, counts, phases)


def _discover(game: Game) -> tuple[dict[int, bytearray], dict[int, list[int]], dict[int, int], int]:
    """The sweep's forward discovery: one level per reached mask, in
    ascending order off one heap, until the full mask is popped.  An edge
    into w stays in level s, which grows as it is read, when it adds no
    color, `not c or s | c == s` for c = colors(w): the fold's in-level
    rule.  Only the seeds (v, colors(v)) and the jumps, the edges that
    add colors, go through `reach`, which charges each new mask n for its
    row plus its own bytes and refuses the game past `_MAX_SLOTS`.
    Returns the rows, 1 at each reached (v, s); each level's vertices in
    the order reached; the non-full masks in the order popped, the memory
    states; and the product edges out of them."""
    n, succ = game.arena.n, game.arena.succ
    vm, full = game.objective.mask, game.objective.full_mask
    rows: dict[int, bytearray] = {}
    verts: dict[int, list[int]] = {}
    heap: list[int] = []
    slots = 0

    def reach(s: int, w: int) -> None:
        nonlocal slots
        row = rows.get(s)
        if row is None:
            slots += n + s.bit_length() // 8  # its row, and s of up to k bits
            if slots > _MAX_SLOTS:
                raise UnsupportedInputError(
                    f"level sweep needs {slots} slots (n plus the mask's bytes per mask reached), "
                    f"above the limit of {_MAX_SLOTS}"
                )
            row = rows[s] = bytearray(n)
            verts[s] = []
            heappush(heap, s)
        if not row[w]:
            row[w] = 1
            verts[s].append(w)

    for v in range(n):
        reach(vm[v], v)
    idx: dict[int, int] = {}
    n_edges = 0
    while heap and (s := heappop(heap)) != full:
        idx[s] = len(idx)
        row, vs = rows[s], verts[s]
        for v in vs:
            n_edges += len(succ[v])
            for w in succ[v]:
                c = vm[w]
                if c and s | c != s:
                    reach(s | c, w)
                elif not row[w]:  # in-level
                    row[w] = 1
                    vs.append(w)
    return rows, verts, idx, n_edges


def _solve_sweep(game: Game) -> SolveResult:
    """`solve_fpt` in two phases: `_discover`, then a sweep back over its
    levels.  A jump lands on a larger mask, so in a level already solved;
    a level's vertices carry only colors its mask holds, so each level is
    one pass of `attractor`'s kernel, `_attract`, over the base arena,
    after the jumps are folded in by discovery's in-level rule.  A row
    entry becomes 2 once (v, s) is won; the full level is won outright.
    """
    t0 = time.perf_counter()
    rows, verts, idx, n_edges = _discover(game)
    t1 = time.perf_counter()
    arena = game.arena
    n, succ, pred = arena.n, arena.succ, arena._pred
    vm, full = game.objective.mask, game.objective.full_mask
    for v in verts.get(full, ()):
        rows[full][v] = 2
    eve = [o is Owner.EVE for o in arena.owner]

    def level(s: int) -> tuple[list[int], dict[int, int], int]:
        """Level s's won vertices in the order won, Eve's moves and the
        relaxations, once every larger level is marked.  Fold in the
        jumps, then attract within the level.  An Eve configuration wins
        outright on a winning jump; an Adam one with a losing jump never
        wins (need -1), and one whose every successor jumps to a win is
        won before the kernel starts."""
        need, won, moves = [0] * n, [], {}
        for v in verts[s]:
            if eve[v]:
                for w in succ[v]:
                    c = vm[w]
                    if c and (s2 := s | c) != s and rows[s2][w] == 2:
                        moves[v] = w
                        won.append(v)
                        break
                else:
                    need[v] = 1
            else:
                for w in succ[v]:
                    c = vm[w]
                    if not c or (s2 := s | c) == s:
                        need[v] += 1
                    elif rows[s2][w] != 2:
                        need[v] = -1
                        break
                if not need[v]:
                    won.append(v)
        via, ops = _attract(pred, need, won)
        moves.update((u, w) for u, w in via.items() if eve[u])
        return won, moves, ops

    ops = 0
    for s in reversed(idx):
        won, _, level_ops = level(s)
        ops += level_ops
        row = rows[s]
        for v in won:
            row[v] = 2
    phases = {"discovery": t1 - t0, "sweep": time.perf_counter() - t1}
    # Moves on lookup: Eve's re-solves her level once, when first read;
    # Adam's applies `_escape`'s rule to the rows inline: his first
    # successor whose configuration Eve does not win.
    eve_at = cache(lambda s: level(s)[1])
    eve_move = lambda v, s: eve_at(s)[v] if eve[v] and s != full and rows[s][v] == 2 else None
    adam_move = lambda v, s: None if eve[v] or rows[s][v] != 1 else next(
        w for w in succ[v] if rows[s | vm[w]][w] != 2
    )
    counts = {"configs": sum(map(len, verts.values())), "product_edges": n_edges, "ops": ops}
    eve_region = frozenset(v for v in range(n) if rows[vm[v]][v] == 2)
    return _fpt_result(
        game, t0, "sweep", eve_region, idx or {full: 0}, eve_move, adam_move, counts, phases
    )


def _fpt_result(
    game: Game, t0: float, route: str, eve_region: frozenset[int], idx: dict[int, int],
    eve_move: Callable, adam_move: Callable, counts: dict[str, int], phases: dict[str, float],
) -> SolveResult:
    """Both routes' strategies and stats.  `idx` numbers the memory both
    players share: the non-full masks that occur, ascending, or one idle
    state when none does.  Each player's moves come as one lookup, the
    move at (v, mask s) or None, for a `_LazyMoves` over that memory."""
    n, vm = game.arena.n, game.objective.mask
    adam_region = frozenset(range(n)) - eve_region
    masks = list(idx)

    def update(s: int, u: int, w: int, _m=masks, _i=idx) -> int:
        t = _i.get(_m[s] | vm[w])
        return s if t is None else t

    def strategy(player: Owner, region: frozenset[int], move: Callable) -> FiniteMemoryStrategy:
        initial = {v: idx.get(vm[v], 0) for v in sorted(region)}
        memory = MemoryStructure(len(idx), initial, update)
        return FiniteMemoryStrategy(player, memory, _LazyMoves(n, move, masks))

    return SolveResult(
        method="fpt",
        eve_region=eve_region,
        adam_region=adam_region,
        eve_strategy=strategy(Owner.EVE, eve_region, eve_move),
        adam_strategy=strategy(Owner.ADAM, adam_region, adam_move),
        stats={
            "k": game.k,
            **counts,
            "eve_states": len(idx),
            "route": route,
            "seconds": time.perf_counter() - t0,
        },
        phases=phases,
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
        lost = ones ^ won
        below = [(lost & m) >> (1 << i) for i, m in enumerate(M)]
        for i, down in enumerate(below):
            t = ((down | lost) ^ lost).bit_length() - 1
            assert t < 0, (
                f"region holds (vertex {v}, mask {t | 1 << i:#b}) but not mask {t:#b}"
            )
        covered = reduce(or_, below, 0)
        rows.append(tuple(_bits((lost | covered) ^ covered)))
    return rows, L


def compress_adam(game: Game) -> FiniteMemoryStrategy:
    """Adam strategy over antichain indices instead of raw masks.

    State i at vertex v stands for the i-th maximal mask of Adam's region
    at v, an overapproximation of the true visited mask that his region
    still contains.  Updates re-maximize after each edge: the first
    maximal mask at the target that holds the state's mask and the
    target's colors; a state past its vertex's row stays.  Moves replay
    the escape of the represented configuration.  Both are answered on
    lookup.  State count is max_v p(v), at most C(k, floor(k/2)).

    Adam's region is downward closed only over the full product, so this
    runs the dense kernel of `solve_fpt` over every mask, and refuses a
    game whose n * 2^k configurations exceed `MAX_CONFIGS` (so any with
    k > 22) before allocating any of them.
    """
    arena = game.arena
    n, succ = arena.n, arena.succ
    k = game.k
    if n << k > MAX_CONFIGS:
        raise UnsupportedInputError(
            f"full product needs {n << k} configurations, above the limit of {MAX_CONFIGS}"
        )
    mask = game.objective.mask
    rows, L = _dense_antichains(game)
    adam = [o is Owner.ADAM for o in arena.owner]

    def holding(w: int, t: int) -> int | None:
        """The index of the first mask of w's row that holds t, or None."""
        for j, s in enumerate(rows[w]):
            if t | s == s:
                return j
        return None

    def update(i: int, u: int, w: int) -> int:
        row = rows[u]
        j = holding(w, row[i] | mask[w]) if i < len(row) else None
        return i if j is None else j

    # Adam's region is downward closed, so v lies in it exactly when a
    # maximal mask of its row holds colors(v).
    starts = ((v, holding(v, mask[v])) for v in range(n))
    initial = {v: j for v, j in starts if j is not None}
    states = max(1, max(map(len, rows), default=0))
    moves = _LazyMoves(
        n,
        lambda v, i: _escape(succ, L, v, rows[v][i]) if adam[v] and i < len(rows[v]) else None,
        range(states),
    )
    return FiniteMemoryStrategy(Owner.ADAM, MemoryStructure(states, initial, update), moves)
