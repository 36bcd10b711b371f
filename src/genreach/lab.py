"""Strategy analysis: simulation, verification, oracles and searches.

Everything here works on the joint configuration space of a game and one
or two finite memory machines.  Since machines and games are finite, the
infinite play two strategies induce is decided exactly: it either reaches
the full color mask or repeats a configuration first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceededError, UnsupportedInputError
from .model import Game, Owner, Play, trace_play
from .strategies import FiniteMemoryStrategy, MemoryStructure

FULL_CLASS = "full"
COLOR_OBS = "color-obs"


@dataclass(frozen=True)
class SimOutcome:
    """Eve wins when `play` completes every color; Adam wins when the
    configuration repeats first, and `play` then ends with that cycle."""

    winner: Owner
    play: Play


def simulate(
    game: Game, sigma: FiniteMemoryStrategy, tau: FiniteMemoryStrategy
) -> SimOutcome:
    """Winner of the unique play the two machines produce from init.

    Eve wins the moment the visited mask is full; Adam wins when the joint
    configuration (vertex, both memory states, mask) repeats first.
    """
    if game.init is None:
        raise UnsupportedInputError("simulation needs a game with an init vertex")
    if sigma.player is not Owner.EVE or tau.player is not Owner.ADAM:
        raise UnsupportedInputError("simulate takes an Eve strategy then an Adam one")
    arena = game.arena
    v0 = game.init
    start = (sigma.memory.initial_state(v0), tau.memory.initial_state(v0))

    def moves(v, pair):
        if arena.is_eve(v):
            return (sigma.move(arena, v, pair[0]),)
        return (tau.move(arena, v, pair[1]),)

    def step(pair, v, w):
        return sigma.memory.update(pair[0], v, w), tau.memory.update(pair[1], v, w)

    walk = _explore(game, [(v0, start)], moves, step)
    _, rows, _, full_id = walk
    if full_id >= 0:
        winner, end = Owner.EVE, full_id
    else:
        # Both moves are fixed, so the walk is one path whose last row
        # points back at the configuration that repeats.
        winner, end = Owner.ADAM, rows[-1][0]
    return SimOutcome(winner, _lasso(game, walk, end))


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
    full-mask configuration is reachable.
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
    # The loop reaches the configurations it appends: they are the queue.
    for i, (v, state, mask) in enumerate(configs):
        row = []
        if mask != full:
            for w in moves(v, state):
                cfg = (w, step(state, v, w), mask | mask_of[w])
                j = index.get(cfg)
                if j is None:
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
    not counted.  `expansions` counts the configuration expansions
    actually done at every state count, which is also the unit of the
    budget.  The search resumes its expansion at each decision point
    instead of restarting it from init, so for the same enumeration this
    count is lower than a restarting search's."""

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
    arguments against the enumeration).
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
    counter = [0]
    refuted = 0
    for states in range(1, bound + 1):
        found = _search_at(
            game, player, states, machine_class, budget, counter, on_refuted
        )
        if isinstance(found, FiniteMemoryStrategy):
            check = verify_strategy(game, found, [game.init])
            assert check.winning, "search accepted a machine verification rejects"
            return MinMemResult(
                player, machine_class, bound, found, states, refuted, counter[0]
            )
        refuted += found
    return MinMemResult(
        player, machine_class, bound, None, None, refuted, counter[0]
    )


def _search_at(game, player, states, machine_class, budget, counter, on_refuted):
    """Exhaust machines with exactly `states` available states; returns a
    winning FiniteMemoryStrategy or the number of refuted leaves.

    One breadth-first expansion of the candidate against the free opponent
    from init is kept across all decision points: `order` lists the
    configurations in discovery order, `index` maps each to its position,
    and `rows[i]` holds the successor positions of `order[i]`, so the next
    configuration to expand is `order[len(rows)]`.  Each frame records
    `len(rows)` and `len(order)` from when its cell was first needed;
    assigning the cell resumes the expansion there, and moving the frame to
    its next value first truncates the expansion back to those marks.
    Every cell read before a frame's cell belongs to a shallower frame, so
    this enumerates exactly the candidates, in exactly the order, that
    restarting the expansion from init at every decision point would.

    A closed Eve candidate loses iff its rows hold a cycle.  Truncating to
    a frame's marks keeps the rows below its row mark and the positions
    they name, so the cycle that refuted the last closed candidate stands
    until a truncation reaches its highest position, `cycle_hi`; until
    then each close fails without another cycle search.

    Update cells are only consulted below the full mask: once every color
    is seen the machine's further behavior is irrelevant.  The caller
    answers an init that already carries every color.
    """
    arena = game.arena
    succ = arena.succ
    mask_of = game.objective.mask
    full = game.objective.full_mask
    k = game.k
    eve = player is Owner.EVE
    color_obs = machine_class == COLOR_OBS
    choice = [o is player and len(ws) > 1 for o, ws in zip(arena.owner, succ)]
    assignment: dict[tuple, int] = {}

    v0 = game.init
    cfg0 = (v0 * states) << k | mask_of[v0]
    order = [cfg0]
    index = {cfg0: 0}
    rows: list[list[int]] = []
    # Frames: [cell, value count, value, maxused before, len(rows), len(order)].
    stack: list[list] = []
    maxused = 0
    refuted = 0
    cycle_hi = -1  # -1 while no refuting cycle stands

    while True:
        verdict = _OK
        # Expand until a cell is undefined, the candidate fails, or the
        # expansion closes.  A row is committed whole or not at all.
        while len(rows) < len(order):
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceededError(
                    f"memory search exceeded its budget of {budget} expansions"
                )
            cfg = order[len(rows)]
            mask = cfg & full
            v, state = divmod(cfg >> k, states)
            if choice[v]:
                need = ("m", v, state)
                pick = assignment.get(need)
                if pick is None:
                    verdict = _NEED
                    break
                targets = (succ[v][pick],)
            else:
                targets = succ[v]
            row = []
            for w in targets:
                colors = mask_of[w]
                mask2 = mask | colors
                if mask2 == full:
                    if not eve:
                        verdict = _FAIL
                        break
                    continue
                if color_obs and not colors:
                    state2 = state
                else:
                    need = ("u", state, colors) if color_obs else ("u", state, v, w)
                    state2 = assignment.get(need)
                    if state2 is None:
                        verdict = _NEED
                        break
                row.append((w * states + state2) << k | mask2)
            else:
                ids = []
                for cfg2 in row:
                    j = index.get(cfg2)
                    if j is None:
                        j = index[cfg2] = len(order)
                        order.append(cfg2)
                    ids.append(j)
                rows.append(ids)
                continue
            break
        if verdict == _OK and eve:
            if cycle_hi < 0:
                cycle_hi = max(_find_cycle(rows), default=-1)
            if cycle_hi >= 0:
                verdict = _FAIL

        if verdict == _NEED:
            if need[0] == "m":
                count = len(succ[need[1]])
            else:
                count = min(maxused + 1, states - 1) + 1
            stack.append([need, count, 0, maxused, len(rows), len(order)])
            assignment[need] = 0
            continue
        if verdict == _OK:
            return _machine_from(game, player, states, machine_class, assignment)
        refuted += 1
        if on_refuted is not None and eve:
            on_refuted(
                _machine_from(game, player, states, machine_class, assignment)
            )
        while stack:
            frame = stack[-1]
            cell, count, value, maxused, rows_mark, order_mark = frame
            value += 1
            if value < count:
                frame[2] = value
                assignment[cell] = value
                if cell[0] == "u":
                    maxused = max(maxused, value)
                if rows_mark <= cycle_hi:
                    cycle_hi = -1
                del rows[rows_mark:]
                for cfg in order[order_mark:]:
                    del index[cfg]
                del order[order_mark:]
                break
            del assignment[cell]
            stack.pop()
        else:
            return refuted


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


def _machine_from(game, player, states, machine_class, assignment):
    arena = game.arena
    mask_of = game.objective.mask
    initial = {game.init: 0}
    # A move cell the search never fixed gets the first successor, the
    # value its enumeration tries first; callers such as the flower
    # adversary ask for a move in every state.
    moves = {
        (v, s): arena.succ[v][assignment.get(("m", v, s), 0)]
        for v in range(arena.n)
        if arena.owner[v] is player and len(arena.succ[v]) > 1
        for s in range(states)
    }
    if machine_class == COLOR_OBS:
        table = {
            (cell[1], cell[2]): nxt
            for cell, nxt in assignment.items()
            if cell[0] == "u"
        }

        def update(s: int, u: int, w: int, _t=table) -> int:
            return _t.get((s, mask_of[w]), s)

        memory = MemoryStructure(states, initial, update)
    else:
        table = {
            (cell[1], cell[2], cell[3]): nxt
            for cell, nxt in assignment.items()
            if cell[0] == "u"
        }
        memory = MemoryStructure.from_table(states, initial, table)
    return FiniteMemoryStrategy(player, memory, moves)


@dataclass(frozen=True)
class FlowerRefutation:
    """Proof that an Eve machine loses the flower game: a strict color
    subset `x` no stopping set equals, the petal sequence Adam plays, and
    the losing play itself."""

    k: int
    x: int
    stopping_sets: tuple[int, ...]
    adam: FiniteMemoryStrategy
    petals: tuple[int, ...]
    outcome: SimOutcome


def flower_adversary(k: int, eve_machine: FiniteMemoryStrategy) -> FlowerRefutation:
    """Beat any sub-threshold Eve machine on the k-petal flower game.

    Each memory state m has a stopping set: the petals where Eve, asked
    from state m, settles into the all-but-that-color loop.  With fewer
    than 2^k - 1 states some strict subset x of colors is nobody's
    stopping set.  Adam repeatedly plays the smallest petal where x and
    the current stopping set disagree: if Eve stops there the missing
    petal's color is never seen, and if she never stops the play only
    ever collects colors inside x.  Either way a color is missed.
    """
    from .generate import gen_flower

    game = gen_flower(k)
    arena = game.arena
    threshold = (1 << k) - 1
    if eve_machine.memory.states >= threshold:
        raise UnsupportedInputError(
            f"{eve_machine.memory.states} states defeat the purpose: the"
            f" adversary covers machines below {threshold}"
        )
    heart = 0
    petal = [1 + 3 * i for i in range(k)]
    back = [3 + 3 * i for i in range(k)]

    memory = eve_machine.memory
    stopping = []
    for m in range(memory.states):
        s = 0
        for i in range(k):
            after = memory.update(m, heart, petal[i])
            if eve_machine.move(arena, petal[i], after) == back[i]:
                s |= 1 << i
        stopping.append(s)
    stop_set = set(stopping)
    x = next((s for s in range(threshold) if s not in stop_set), None)
    assert x is not None, (
        "every strict subset is a stopping set, impossible below"
        f" {threshold} states"
    )

    adam_moves = {}
    for m in range(memory.states):
        diff = x ^ stopping[m]
        adam_moves[(heart, m)] = petal[(diff & -diff).bit_length() - 1]
    adam = FiniteMemoryStrategy(Owner.ADAM, memory, adam_moves)

    outcome = simulate(game, eve_machine, adam)
    if outcome.winner is not Owner.ADAM:
        raise AssertionError("the adversary construction must win; this is a bug")
    vertices = outcome.play.vertices
    petals = tuple(
        vertices[i + 1] for i in range(len(vertices) - 1) if vertices[i] == heart
    )
    return FlowerRefutation(k, x, tuple(stopping), adam, petals, outcome)
