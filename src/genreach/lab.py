"""Strategy analysis: verification, oracles and searches.

Everything here works on the configuration space of a game, alone or
joined with one finite memory machine.  Since machines and games are
finite, every play is decided exactly: it either reaches the full color
mask or repeats a configuration first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceededError, UnsupportedInputError
from .model import Game, Owner, Play, trace_play
from .strategies import FiniteMemoryStrategy, MemoryStructure, _LazyMoves

FULL_CLASS = "full"
COLOR_OBS = "color-obs"
# `_explore`'s limit on the configurations it holds, each charged one slot
# plus its mask's bytes as the level sweep charges them.  At about 370
# bytes a configuration it stops a walk near 390 MB; the largest walks of
# the tests and of the certify benchmark hold 1,136 and 3,366 slots.
_MAX_WALK = 1 << 20


@dataclass(frozen=True)
class VerifyResult:
    """`winning` means the strategy wins from every claimed vertex.  On
    failure, `counterexample` is a concrete losing play from
    `failing_vertex` (a lasso for Eve claims, a completed-colors path for
    Adam claims).  `states_used` are the memory states reachable while
    checking, a certified bound on the memory the strategy needs."""

    winning: bool
    failing_vertex: int | None
    counterexample: Play | None
    states_used: frozenset[int]


def verify_strategy(
    game: Game, strategy: FiniteMemoryStrategy, claimed_region
) -> VerifyResult:
    """Check a strategy against every opponent behavior at once.

    Fixing one player's machine turns the game into a one-player graph
    over configurations (vertex, memory state, visited mask).  An Eve
    strategy wins from its claimed vertices iff no cycle of that graph
    short of the full mask is reachable; an Adam strategy wins iff no
    full-mask configuration is reachable.  Raises `UnsupportedInputError`
    once the walk would pass `_MAX_WALK` slots.
    """
    arena = game.arena
    memory = strategy.memory
    starts = [(v, memory.initial_state(v)) for v in sorted(set(claimed_region))]

    def moves(v, state):
        if arena.owner[v] is strategy.player:
            return (strategy.move(arena, v, state),)
        return arena.succ[v]

    walk = _explore(game, starts, moves, memory.update)
    configs, rows, _, full_id = walk
    states_used = frozenset(state for _, state, _ in configs)
    # Full-mask rows are empty, so a cycle is a play missing a color.
    if strategy.player is Owner.ADAM:
        bad = full_id
    else:
        cycle = _find_cycle(rows)
        bad = cycle[0] if cycle else -1
    if bad < 0:
        return VerifyResult(True, None, None, states_used)
    play = _lasso(game, walk, bad)
    return VerifyResult(False, play.vertices[0], play, states_used)


def _explore(game, starts, moves, step):
    """Breadth-first walk over configurations (vertex, memory state,
    visited mask) from the (vertex, state) pairs `starts`, following the
    successors `moves(v, state)` with memory `step(state, v, w)`.

    Returns the configurations in discovery order, each one's successor
    ids (none at the full mask), each one's parent id (-1 at a start) and
    the first full-mask id (-1 if none).
    """
    mask_of = game.objective.mask
    full = game.objective.full_mask
    configs = list(dict.fromkeys((v, state, mask_of[v]) for v, state in starts))
    index = {cfg: i for i, cfg in enumerate(configs)}
    parent = [-1] * len(configs)
    rows: list[list[int]] = []
    slots = sum(1 + cfg[2].bit_length() // 8 for cfg in configs)
    # The loop reaches the configurations it appends: they are the queue.
    for i, (v, state, mask) in enumerate(configs):
        row = []
        if mask != full:
            for w in moves(v, state):
                cfg = (w, step(state, v, w), mask | mask_of[w])
                j = index.get(cfg)
                if j is None:
                    slots += 1 + cfg[2].bit_length() // 8
                    if slots > _MAX_WALK:
                        raise UnsupportedInputError(
                            f"strategy walk needs {slots} slots (one plus the mask's bytes per "
                            f"configuration reached), above the limit of {_MAX_WALK}"
                        )
                    j = index[cfg] = len(configs)
                    configs.append(cfg)
                    parent.append(i)
                row.append(j)
        rows.append(row)
    full_id = next((i for i, cfg in enumerate(configs) if cfg[2] == full), -1)
    return configs, rows, parent, full_id


def _lasso(game, walk, end) -> Play:
    """The walk's play from a start to configuration `end`, plus one lap
    back to `end` when it lies on a cycle."""
    configs, rows, parent, _ = walk
    chain = [end]
    while parent[chain[-1]] >= 0:
        chain.append(parent[chain[-1]])
    chain.reverse()
    # A breadth-first walk from `end` back to itself, read off backwards.
    back: dict[int, int] = {}
    todo = deque([end])
    while todo and end not in back:
        i = todo.popleft()
        for j in rows[i]:
            if j not in back:
                back[j] = i
                todo.append(j)
    if end in back:
        lap = [end]
        while back[lap[-1]] != end:
            lap.append(back[lap[-1]])
        chain.extend(reversed(lap))
    return trace_play(game, [configs[i][0] for i in chain])


def minimax_oracle(game: Game, budget: int | None = None) -> Owner:
    """Exact winner from init by brute alternating search.

    Plays are explored on (vertex, visited mask) pairs to a horizon of
    n*k steps, which suffices: a winning Eve never needs more than n
    steps per color set.  Memoized, depth-first on an explicit stack, so
    the full horizon needs no recursion; intended for small instances,
    with a node budget (default 2,000,000) as the stop guard.  Every
    frame pushed counts as one node plus one per 64 bits of its visited
    mask, which the frame and its memo key hold, so the budget bounds
    the time, the memo and the stack alike, whatever the horizon or the
    color count.
    """
    if game.init is None:
        raise UnsupportedInputError("the minimax oracle needs a game with init")
    if budget is None:
        budget = 2_000_000
    if budget < 0:
        raise ValueError(f"the node budget must be 0 or more, not {budget}")
    arena = game.arena
    mask_of = game.objective.mask
    full = game.objective.full_mask
    horizon = arena.n * game.k
    succ = arena.succ
    memo: dict[tuple[int, int, int], bool] = {}
    nodes = 0
    # Frames of the explicit depth-first stack: [vertex, mask, steps, next
    # successor index].  Steps fall by one per level, so no key can be on
    # the stack twice and each memo key is counted once.
    stack: list[list[int]] = []

    def enter(v: int, mask: int, steps: int) -> bool | None:
        """The position's value if known at once, else None after pushing
        its frame."""
        nonlocal nodes
        if mask == full:
            return True
        if steps == 0:
            return False
        cached = memo.get((v, mask, steps))
        if cached is not None:
            return cached
        nodes += 1 + (mask.bit_length() >> 6)
        if nodes > budget:
            raise BudgetExceededError(f"minimax oracle exceeded {budget} nodes")
        stack.append([v, mask, steps, 0])
        return None

    value = enter(game.init, mask_of[game.init], horizon)
    while stack:
        frame = stack[-1]
        v, mask, steps, i = frame
        eve = arena.is_eve(v)
        if value is None:
            if i < len(succ[v]):
                w = succ[v][i]
                frame[3] = i + 1
                value = enter(w, mask | mask_of[w], steps - 1)
                continue
            value = not eve
        elif value != eve:
            # Eve needs one winning successor, Adam one losing one.
            value = None
            continue
        memo[(v, mask, steps)] = value
        stack.pop()
    return Owner.EVE if value else Owner.ADAM


@dataclass(frozen=True)
class MinMemResult:
    """Outcome of the bounded search.  `strategy` is None when no machine
    within the bound wins.  `refuted` counts the leaves of the canonical
    search tree eliminated at the state counts that have no winner: every
    count up to `bound` when `strategy` is None, else the counts below
    `states`; the losers tried at `states` itself before the winner are
    not counted.  `expansions` counts the configuration expansions of the
    enumeration at every state count, which is also the unit of the
    budget; Adam candidates sure to fail in the same row as the last one
    are counted with their one expansion each without being redone.  The
    search resumes its expansion at each decision point instead of
    restarting it from init, so for the same enumeration this count is
    lower than a restarting search's."""

    player: Owner
    machine_class: str
    bound: int
    strategy: FiniteMemoryStrategy | None
    states: int | None
    refuted: int
    expansions: int


_NEED, _FAIL, _OK = 0, 1, 2


def min_memory_search(
    game: Game,
    player: Owner,
    bound: int,
    machine_class: str = COLOR_OBS,
    budget: int | None = None,
    on_refuted=None,
) -> MinMemResult:
    """Smallest winning machine for `player` from init, within `bound` states.

    Candidate machines are grown cell by cell: simulating the candidate
    against the free opponent from init stops at the first undefined
    update or move entry, that cell becomes the next decision point, and
    its values are enumerated with initialized-first state numbering (a
    fresh state may only be one past the highest state mentioned so far),
    so machines equal up to renaming are tried once.  A candidate whose
    reachable cells are all defined is decided exactly: an Eve machine
    wins iff the restricted configuration graph has no cycle short of the
    full mask, an Adam machine iff no full-mask configuration is
    reachable.

    In the FULL class updates may depend on the edge taken; in COLOR_OBS
    they see only the colors of the edge's target, and stepping onto an
    uncolored vertex observes nothing and keeps the state.  That is a
    coarser but much smaller class; results are per class, so NONE under
    COLOR_OBS does not rule out a FULL-class machine.

    `budget` caps the configuration expansions, 20,000,000 by default.
    `on_refuted`, for Eve searches, receives each fully-explored losing
    candidate as a FiniteMemoryStrategy (used to cross-check lower-bound
    arguments against the enumeration).  It also receives the losers
    tried at the winning state count, which `refuted` does not count:
    on flower2, Eve, bound 3, FULL_CLASS, it runs 188,224 times while
    `refuted` is 5,220.
    """
    if game.init is None:
        raise UnsupportedInputError("memory search needs a game with init")
    if machine_class not in (FULL_CLASS, COLOR_OBS):
        raise ValueError(f"unknown machine class {machine_class!r}")
    if bound < 1:
        raise ValueError("the state bound must be at least 1")
    if budget is None:
        budget = 20_000_000
    if budget < 0:
        raise ValueError(f"the expansion budget must be 0 or more, not {budget}")
    if game.objective.mask[game.init] == game.objective.full_mask:
        # Eve has won before any move: her empty machine wins with one
        # state, and Adam's one candidate loses at every state count.
        if player is Owner.EVE:
            found = _machine_from(game, player, 1, machine_class, {})
            return MinMemResult(player, machine_class, bound, found, 1, 0, 0)
        return MinMemResult(player, machine_class, bound, None, None, bound, 0)
    arena = game.arena
    choice = [o is player and len(ws) > 1 for o, ws in zip(arena.owner, arena.succ)]
    expansions = refuted = 0
    for states in range(1, bound + 1):
        found, expansions = _search_at(
            game, player, states, machine_class, choice, budget, expansions,
            on_refuted,
        )
        if isinstance(found, FiniteMemoryStrategy):
            check = verify_strategy(game, found, [game.init])
            assert check.winning, "search accepted a machine verification rejects"
            return MinMemResult(
                player, machine_class, bound, found, states, refuted, expansions
            )
        refuted += found
    return MinMemResult(player, machine_class, bound, None, None, refuted, expansions)


def _search_at(
    game, player, states, machine_class, choice, budget, expansions, on_refuted
):
    """Exhaust machines with exactly `states` available states, counting
    expansions on from `expansions`; returns a winning FiniteMemoryStrategy
    or the number of refuted leaves, with the expansion count by then.
    `choice[v]` says whether the machine picks the move at `v`; the caller
    builds it once for every state count, so a state count costs nothing
    per vertex of the arena.

    One breadth-first expansion of the candidate against the free opponent
    from init is kept across all decision points: `order` lists the
    configurations in discovery order, `index` maps each to its position,
    and the next configuration to expand is `order[done]`.  Each frame
    records `done` and `len(order)` from when its cell was first needed;
    assigning the cell resumes the expansion there, and moving the frame to
    its next value first truncates the expansion back to those marks.
    Every cell read before a frame's cell belongs to a shallower frame, so
    this enumerates exactly the candidates, in exactly the order, that
    restarting the expansion from init at every decision point would.

    A configuration is the int `(v << sb | state) << k | mask`, where `sb`
    bits hold a state, and a decision cell is an int too.  The move cell
    of (v, state) is `~(v * states + state)`, so it is negative.  An
    update cell is `state << k | colors` in COLOR_OBS and
    `(state * n + v) * n + w` in FULL.  `_machine_from` reads these cells
    as they are.

    A closed Eve candidate loses iff its configurations hold a cycle.
    Masks only grow along an edge, so a cycle keeps one mask, and `rows[i]`
    holds only the successor positions of `order[i]` with its mask.
    Truncating to a frame's marks keeps the rows below its row mark and the
    positions they name, so a cycle stands until a truncation reaches its
    highest position, `cycle_hi`; until then each close fails without a
    cycle search.  While none stands, each appended row is checked for a
    self-loop or a 2-cycle, which sets `cycle_hi` at once.  Adam keeps no
    rows.

    An Adam candidate fails at a full-mask target, before that target
    reads a cell.  When it fails in the row that needed the deepest
    frame's update cell, every value of the cell not yet tried fails there
    too after one expansion of that row, since the row reads the same
    cells whatever the value; those values are counted as refuted and
    expanded without being tried.  Move cells are left out, since a new
    pick changes the row's targets.

    Update cells are only consulted below the full mask: once every color
    is seen the machine's further behavior is irrelevant.  The caller
    answers an init that already carries every color.
    """
    arena = game.arena
    succ = arena.succ
    n = arena.n
    mask_of = game.objective.mask
    full = game.objective.full_mask
    k = game.k
    sb = (states - 1).bit_length()
    top = k + sb  # the shift of v in a configuration
    state_bits = (1 << sb) - 1
    eve = player is Owner.EVE
    color_obs = machine_class == COLOR_OBS
    over_budget = f"memory search exceeded its budget of {budget} expansions"
    assignment: dict[int, int] = {}
    v0 = game.init
    cfg0 = v0 << top | mask_of[v0]
    order = [cfg0]
    index = {cfg0: 0}
    rows: list[list[int]] = []
    # Each vertex's targets as (w, colors, w << top), built on first use.
    arcs: dict[int, tuple] = {}
    # Frames: [cell, value count, value, maxused before, done, len(order)].
    stack: list[list[int]] = []
    maxused = 0
    refuted = 0
    done = 0  # configurations expanded
    cycle_hi = -1  # -1 while no refuting cycle stands

    while True:
        verdict = _OK
        # Expand until a cell is undefined, the candidate fails, or the
        # expansion closes.  A row counts as expanded only once whole; the
        # configurations it queued before an undefined cell do not depend
        # on that cell, so they stay queued and its next expansion finds
        # them at the same positions.
        while done < len(order):
            expansions += 1
            if expansions > budget:
                raise BudgetExceededError(over_budget)
            cfg = order[done]
            mask = cfg & full
            state = cfg >> k & state_bits
            v = cfg >> top
            out = arcs.get(v)
            if out is None:
                out = arcs[v] = tuple((w, mask_of[w], w << top) for w in succ[v])
            if choice[v]:
                need = ~(v * states + state)
                pick = assignment.get(need)
                if pick is None:
                    verdict = _NEED
                    break
                out = (out[pick],)
            same = mask if eve else -1  # the mask of the successors kept
            base = state << k if color_obs else (state * n + v) * n
            ids = []
            for w, colors, high in out:
                mask2 = mask | colors
                if mask2 == full:
                    if not eve:
                        verdict = _FAIL
                        break
                    continue
                if color_obs and not colors:
                    state2 = state
                else:
                    need = base | colors if color_obs else base + w
                    state2 = assignment.get(need)
                    if state2 is None:
                        verdict = _NEED
                        break
                cfg2 = high | state2 << k | mask2
                j = index.get(cfg2)
                if j is None:
                    j = index[cfg2] = len(order)
                    order.append(cfg2)
                if mask2 == same:
                    ids.append(j)
            else:
                if eve:
                    rows.append(ids)
                    if cycle_hi < 0:
                        for j in ids:
                            if j <= done and done in rows[j]:
                                cycle_hi = done
                                break
                done += 1
                continue
            break
        if verdict == _OK and eve:
            if cycle_hi < 0:
                cycle_hi = max(_find_cycle(rows), default=-1)
            if cycle_hi >= 0:
                verdict = _FAIL

        if verdict == _NEED:
            # `v` is the vertex whose expansion needed the cell.
            count = len(succ[v]) if need < 0 else min(maxused + 1, states - 1) + 1
            stack.append([need, count, 0, maxused, done, len(order)])
            assignment[need] = 0
            continue
        if verdict == _OK:
            found = _machine_from(game, player, states, machine_class, assignment)
            return found, expansions
        refuted += 1
        if on_refuted is not None and eve:
            on_refuted(_machine_from(game, player, states, machine_class, assignment))
        if not eve and stack and stack[-1][4] == done and stack[-1][0] >= 0:
            # The deepest frame's update cell was needed in the row that
            # failed: its untried values fail there too, one expansion each.
            cell, count, value = stack.pop()[:3]
            del assignment[cell]
            skipped = count - value - 1
            refuted += skipped
            expansions += skipped
            if expansions > budget:
                raise BudgetExceededError(over_budget)
        while stack:
            frame = stack[-1]
            cell, count, value, maxused, rows_mark, order_mark = frame
            value += 1
            if value < count:
                frame[2] = value
                assignment[cell] = value
                if cell >= 0:
                    maxused = max(maxused, value)
                if rows_mark <= cycle_hi:
                    cycle_hi = -1
                done = rows_mark
                del rows[rows_mark:]
                for cfg in order[order_mark:]:
                    del index[cfg]
                del order[order_mark:]
                break
            del assignment[cell]
            stack.pop()
        else:
            return refuted, expansions


def _find_cycle(rows: list[list[int]]) -> list[int]:
    """The nodes of a cycle of the graph given by successor rows, in the
    order the cycle visits them, or [] if it has none; for an Eve machine
    such a cycle is a play that never completes the colors."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(rows)
    for root in range(len(rows)):
        if color[root] != WHITE:
            continue
        work = [(root, 0)]
        color[root] = GRAY
        while work:
            node, i = work.pop()
            row = rows[node]
            while i < len(row):
                nxt = row[i]
                i += 1
                c = color[nxt]
                if c == GRAY:
                    # `work` holds the gray path from the root down to
                    # `node`'s parent; the cycle is its tail from `nxt`.
                    path = [u for u, _ in work]
                    path.append(node)
                    return path[path.index(nxt):]
                if c == WHITE:
                    work.append((node, i))
                    color[nxt] = GRAY
                    work.append((nxt, 0))
                    break
            else:
                color[node] = BLACK
    return []


def _machine_from(game, player, states, machine_class, cells):
    """The machine of the int decision cells `cells`, encoded as in
    `_search_at`.  The cells are copied, since the search goes on changing
    its own, and read on lookup, so a machine costs nothing per vertex."""
    arena = game.arena
    succ, owner, n = arena.succ, arena.owner, arena.n
    mask_of = game.objective.mask
    k = game.k
    cells = dict(cells)

    # A move cell the search never fixed gets the first successor, the
    # value its enumeration tries first; callers such as the flower
    # adversary in `tests/helpers.py` ask for a move in every state.
    def move(v: int, s: int) -> int | None:
        if owner[v] is player and len(succ[v]) > 1:
            return succ[v][cells.get(~(v * states + s), 0)]
        return None

    # A missing update cell means "stay".  No COLOR_OBS cell has empty
    # colors, so an uncolored target keeps the state.
    if machine_class == COLOR_OBS:

        def update(s: int, u: int, w: int) -> int:
            return cells.get(s << k | mask_of[w], s)

    else:

        def update(s: int, u: int, w: int) -> int:
            return cells.get((s * n + u) * n + w, s)

    memory = MemoryStructure(states, {game.init: 0}, update)
    return FiniteMemoryStrategy(player, memory, _LazyMoves(n, move, range(states)))
