"""Strategy analysis: simulation, verification, oracles and searches.

Everything here works on the joint configuration space of a game and one
or two finite memory machines.  Since machines and games are finite, the
infinite play two strategies induce is decided exactly: it either reaches
the full color mask or repeats a configuration first.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BudgetExceededError,
    InitRequiredError,
    InvalidGameError,
    NoMissingSubsetError,
    StateCountTooLargeError,
)
from .model import Game, Owner, Play, trace_play
from .scc import strongly_connected_components
from .strategies import FiniteMemoryStrategy, MemoryStructure

FULL_CLASS = "full"
COLOR_OBS = "color-obs"

_BUDGET_ENV = "GENREACH_BUDGET"


def search_budget(default: int) -> int:
    """Effective operation budget: the GENREACH_BUDGET variable, else the
    caller's default.  Shared by every bounded search in the package."""
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None


class Reason(Enum):
    ALL_COLORS = "all-colors"
    STATE_REPEAT = "state-repeat"


@dataclass(frozen=True)
class SimOutcome:
    winner: Owner
    play: Play
    steps: int
    reason: Reason


def simulate(
    game: Game, sigma: FiniteMemoryStrategy, tau: FiniteMemoryStrategy
) -> SimOutcome:
    """Winner of the unique play the two machines produce from init.

    Eve wins the moment the visited mask is full; Adam wins when the joint
    configuration (vertex, both memory states, mask) repeats first.
    """
    if game.init is None:
        raise InitRequiredError("simulation needs a game with an init vertex")
    if sigma.player is not Owner.EVE or tau.player is not Owner.ADAM:
        raise InvalidGameError("simulate takes an Eve strategy then an Adam one")
    arena = game.arena
    full = game.objective.full_mask
    v = game.init
    ss = sigma.memory.initial_state(v)
    ts = tau.memory.initial_state(v)
    mask = game.colors(v)
    vertices = [v]
    if mask == full:
        return SimOutcome(Owner.EVE, trace_play(game, vertices), 0, Reason.ALL_COLORS)
    seen = {(v, ss, ts, mask)}
    steps = 0
    while True:
        mover = sigma if arena.is_eve(v) else tau
        w = mover.move(arena, v, ss if mover is sigma else ts)
        if w not in arena.succ[v]:
            raise InvalidGameError(
                f"strategy moved along ({arena.names[v]}, {arena.names[w]}),"
                " which is not an edge"
            )
        ss = sigma.memory.step(ss, v, w)
        ts = tau.memory.step(ts, v, w)
        mask |= game.colors(w)
        v = w
        vertices.append(v)
        steps += 1
        if mask == full:
            return SimOutcome(
                Owner.EVE, trace_play(game, vertices), steps, Reason.ALL_COLORS
            )
        config = (v, ss, ts, mask)
        if config in seen:
            return SimOutcome(
                Owner.ADAM, trace_play(game, vertices), steps, Reason.STATE_REPEAT
            )
        seen.add(config)


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
    full = game.objective.full_mask
    claimed = sorted(set(claimed_region))

    starts: dict[tuple[int, int, int], int] = {}
    for v in claimed:
        cfg = (v, strategy.memory.initial_state(v), game.colors(v))
        starts.setdefault(cfg, v)
    succ: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    parent: dict[tuple[int, int, int], tuple[int, int, int] | None] = {
        cfg: None for cfg in starts
    }
    queue = deque(starts)
    full_hit = None
    while queue:
        cfg = queue.popleft()
        v, state, mask = cfg
        if mask == full:
            if full_hit is None:
                full_hit = cfg
            continue
        if arena.owner[v] is strategy.player:
            targets = [strategy.move(arena, v, state)]
        else:
            targets = arena.succ[v]
        row = []
        for w in targets:
            nxt = (w, strategy.memory.step(state, v, w), mask | game.colors(w))
            row.append(nxt)
            if nxt not in parent:
                parent[nxt] = cfg
                queue.append(nxt)
        succ[cfg] = row
    states_used = frozenset(state for _, state, _ in parent)

    def path_to(cfg) -> list[tuple[int, int, int]]:
        chain = [cfg]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        return chain[::-1]

    if strategy.player is Owner.ADAM:
        if full_hit is None:
            return VerifyResult(True, None, None, states_used)
        chain = path_to(full_hit)
        play = trace_play(game, [c[0] for c in chain])
        return VerifyResult(False, chain[0][0], play, states_used)

    # Eve: look for a reachable cycle that never completes the colors.
    nodes = list(succ)
    index = {cfg: i for i, cfg in enumerate(nodes)}
    graph = [
        [index[w] for w in succ[cfg] if w[2] != full] for cfg in nodes
    ]
    ncomp, comp = strongly_connected_components(graph)
    cyclic = [False] * ncomp
    for i, row in enumerate(graph):
        for j in row:
            if comp[j] == comp[i]:
                cyclic[comp[i]] = True
    bad = [cfg for cfg in nodes if cyclic[comp[index[cfg]]]]
    if not bad:
        return VerifyResult(True, None, None, states_used)
    entry = min(bad, key=lambda cfg: len(path_to(cfg)))
    chain = path_to(entry)
    # One lap around the cycle: follow same-component successors.
    lap = []
    cur = entry
    while True:
        cur = next(
            w
            for w in succ[cur]
            if w[2] != full and comp[index[w]] == comp[index[entry]]
        )
        lap.append(cur)
        if cur == entry:
            break
    play = trace_play(game, [c[0] for c in chain + lap])
    return VerifyResult(False, chain[0][0], play, states_used)


def minimax_oracle(game: Game, budget: int | None = None) -> Owner:
    """Exact winner from init by brute alternating search.

    Plays are explored on (vertex, visited mask) pairs to a horizon of
    n*k steps, which suffices: a winning Eve never needs more than n
    steps per color set.  Memoized, depth-first on an explicit stack, so
    the full horizon needs no recursion; intended for small instances,
    with a node budget as the stop guard.
    """
    if game.init is None:
        raise InitRequiredError("the minimax oracle needs a game with init")
    if budget is None:
        budget = search_budget(2_000_000)
    arena = game.arena
    mask_of = game.objective.mask
    full = game.objective.full_mask
    horizon = arena.n * game.k
    if horizon > 10_000:
        raise BudgetExceededError(
            f"minimax horizon {horizon} is beyond desk scale"
        )
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
        nodes += 1
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
    within the bound wins; `refuted` counts the leaves of the canonical
    search tree that were eliminated; `expansions` the configuration
    expansions actually done, which is also the unit of the budget.  The
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

    `on_refuted`, for Eve searches, receives each fully-explored losing
    candidate as a FiniteMemoryStrategy (used to cross-check lower-bound
    arguments against the enumeration).
    """
    if game.init is None:
        raise InitRequiredError("memory search needs a game with init")
    if machine_class not in (FULL_CLASS, COLOR_OBS):
        raise ValueError(f"unknown machine class {machine_class!r}")
    if bound < 1:
        raise ValueError("the state bound must be at least 1")
    if budget is None:
        budget = search_budget(20_000_000)
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

    Update cells are only consulted below the full mask: once every color
    is seen the machine's further behavior is irrelevant.
    """
    arena = game.arena
    succ = arena.succ
    owner = arena.owner
    mask_of = game.objective.mask
    full = game.objective.full_mask
    k = game.k
    eve = player is Owner.EVE
    color_obs = machine_class == COLOR_OBS
    assignment: dict[tuple, int] = {}

    v0 = game.init
    if mask_of[v0] == full:
        if eve:
            return _machine_from(game, player, states, machine_class, assignment)
        return 1
    cfg0 = (v0 * states) << k | mask_of[v0]
    order = [cfg0]
    index = {cfg0: 0}
    rows: list[list[int]] = []
    # Frames: [cell, value count, value, maxused before, len(rows), len(order)].
    stack: list[list] = []
    maxused = 0
    refuted = 0

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
            mask = cfg & full if k else 0
            v, state = divmod(cfg >> k, states)
            if owner[v] is player and len(succ[v]) > 1:
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
                mask2 = mask | mask_of[w]
                if mask2 == full:
                    if not eve:
                        verdict = _FAIL
                        break
                    continue
                if color_obs and not mask_of[w]:
                    state2 = state
                else:
                    need = ("u", state, mask_of[w]) if color_obs else ("u", state, v, w)
                    state2 = assignment.get(need)
                    if state2 is None:
                        verdict = _NEED
                        break
                row.append((w * states + state2) << k | mask2)
            else:
                for cfg2 in row:
                    if cfg2 not in index:
                        index[cfg2] = len(order)
                        order.append(cfg2)
                rows.append([index[cfg2] for cfg2 in row])
                continue
            break
        if verdict == _OK and eve and _has_cycle(rows):
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
                del rows[rows_mark:]
                for cfg in order[order_mark:]:
                    del index[cfg]
                del order[order_mark:]
                break
            del assignment[cell]
            stack.pop()
        else:
            return refuted


def _has_cycle(rows: list[list[int]]) -> bool:
    """Whether the graph given by successor rows has a cycle; for an Eve
    candidate such a cycle is a play that never completes the colors."""
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
                    return True
                if c == WHITE:
                    work.append((node, i))
                    color[nxt] = GRAY
                    work.append((nxt, 0))
                    break
            else:
                color[node] = BLACK
    return False


def _machine_from(game, player, states, machine_class, assignment):
    arena = game.arena
    mask_of = game.objective.mask
    moves = {
        (cell[1], cell[2]): arena.succ[cell[1]][pick]
        for cell, pick in assignment.items()
        if cell[0] == "m"
    }
    if machine_class == COLOR_OBS:
        table = {
            (cell[1], cell[2]): nxt
            for cell, nxt in assignment.items()
            if cell[0] == "u"
        }

        def update(s: int, u: int, w: int, _t=table) -> int:
            return _t.get((s, mask_of[w]), s)

        memory = MemoryStructure(states, 0, update)
    else:
        table = {
            (cell[1], cell[2], cell[3]): nxt
            for cell, nxt in assignment.items()
            if cell[0] == "u"
        }
        memory = MemoryStructure.from_table(states, 0, table)
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

    def to_json(self, game: Game) -> dict:
        names = game.arena.names
        return {
            "X": _mask_to_colors(self.x),
            "stopping_sets": [_mask_to_colors(s) for s in self.stopping_sets],
            "moves": [names[v] for v in self.petals],
            "play": [names[v] for v in self.outcome.play.vertices],
        }


def _mask_to_colors(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


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
        raise StateCountTooLargeError(
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
            after = memory.step(m, heart, petal[i])
            if eve_machine.move(arena, petal[i], after) == back[i]:
                s |= 1 << i
        stopping.append(s)
    stop_set = set(stopping)
    x = next((s for s in range(threshold) if s not in stop_set), None)
    if x is None:
        raise NoMissingSubsetError(
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
