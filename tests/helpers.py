"""Small builders shared by the test modules."""

import dataclasses
import random
from collections import deque

from genreach import (
    FiniteMemoryStrategy,
    Game,
    GenParams,
    MemoryStructure,
    Owner,
    generate,
    minimax_oracle,
)
from genreach.lab import COLOR_OBS, _machine_from


def random_game(
    seed: int,
    n: int = 8,
    k: int = 2,
    density: float = 0.3,
    eve_ratio: float = 0.5,
    color_size: tuple[int, int] = (1, 2),
) -> Game:
    return generate(
        GenParams(
            "random",
            k=k,
            n=n,
            density=density,
            eve_ratio=eve_ratio,
            color_size=color_size,
            seed=seed,
        )
    )


def minimax_region(game: Game) -> frozenset[int]:
    """Eve's winning region computed one start vertex at a time."""
    return frozenset(
        v
        for v in range(game.arena.n)
        if minimax_oracle(dataclasses.replace(game, init=v)) is Owner.EVE
    )


def random_machine(
    game: Game, player: Owner, states: int, rng: random.Random
) -> FiniteMemoryStrategy:
    """A uniformly random finite-memory strategy for one player."""
    arena = game.arena
    table = {
        (s, v, w): rng.randrange(states)
        for s in range(states)
        for v in range(arena.n)
        for w in arena.succ[v]
    }
    moves = {
        (v, s): rng.choice(arena.succ[v])
        for v in range(arena.n)
        if arena.owner[v] is player and len(arena.succ[v]) > 1
        for s in range(states)
    }
    return FiniteMemoryStrategy(
        player, MemoryStructure.from_table(states, 0, table), moves
    )


def reference_min_memory_search(game, player, bound, machine_class, on_refuted=None):
    """`min_memory_search` by restarting the expansion from init at every
    decision point, with no budget.  Returns (machine or None, states,
    refuted, expansions); the incremental search must enumerate exactly the
    same candidates in the same order, and expand no more configurations."""
    counter = [0]
    refuted = 0
    for states in range(1, bound + 1):
        found = _reference_search_at(
            game, player, states, machine_class, counter, on_refuted
        )
        if isinstance(found, FiniteMemoryStrategy):
            return found, states, refuted, counter[0]
        refuted += found
    return None, None, refuted, counter[0]


def _reference_search_at(game, player, states, machine_class, counter, on_refuted):
    succ = game.arena.succ
    assignment = {}
    stack = []
    maxused = 0
    refuted = 0
    while True:
        verdict, cell = _reference_explore(
            game, player, states, machine_class, assignment, counter
        )
        if verdict == "need":
            if cell[0] == "m":
                values = list(range(len(succ[cell[1]])))
            else:
                values = list(range(min(maxused + 1, states - 1) + 1))
            stack.append([cell, values, 0, maxused])
            assignment[cell] = values[0]
            continue
        if verdict == "ok":
            return _machine_from(game, player, states, machine_class, assignment)
        refuted += 1
        if on_refuted is not None and player is Owner.EVE:
            on_refuted(_machine_from(game, player, states, machine_class, assignment))
        while stack:
            frame = stack[-1]
            frame[2] += 1
            if frame[2] < len(frame[1]):
                value = frame[1][frame[2]]
                assignment[frame[0]] = value
                maxused = frame[3]
                if frame[0][0] == "u":
                    maxused = max(maxused, value)
                break
            del assignment[frame[0]]
            maxused = frame[3]
            stack.pop()
        else:
            return refuted


def _reference_explore(game, player, states, machine_class, assignment, counter):
    """Breadth-first expansion of the candidate against the free opponent,
    from init: ("need", cell) at the first undefined cell, else "fail" or
    "ok" for a fully defined candidate."""
    arena = game.arena
    succ, owner = arena.succ, arena.owner
    mask_of = game.objective.mask
    full = game.objective.full_mask
    k = game.k
    v0 = game.init
    if mask_of[v0] == full:
        return ("ok" if player is Owner.EVE else "fail"), None
    cfg0 = (v0 * states) << k | mask_of[v0]
    seen = {cfg0}
    queue = deque([cfg0])
    edges = {}
    color_obs = machine_class == COLOR_OBS
    while queue:
        cfg = queue.popleft()
        counter[0] += 1
        mask = cfg & full if k else 0
        v, state = divmod(cfg >> k, states)
        if owner[v] is player and len(succ[v]) > 1:
            cell = ("m", v, state)
            pick = assignment.get(cell)
            if pick is None:
                return "need", cell
            targets = (succ[v][pick],)
        else:
            targets = succ[v]
        row = []
        for w in targets:
            mask2 = mask | mask_of[w]
            if mask2 == full:
                if player is Owner.ADAM:
                    return "fail", None
                continue
            if color_obs and not mask_of[w]:
                state2 = state
            else:
                cell = ("u", state, mask_of[w]) if color_obs else ("u", state, v, w)
                state2 = assignment.get(cell)
                if state2 is None:
                    return "need", cell
            cfg2 = (w * states + state2) << k | mask2
            row.append(cfg2)
            if cfg2 not in seen:
                seen.add(cfg2)
                queue.append(cfg2)
        edges[cfg] = row
    if player is Owner.ADAM:
        return "ok", None
    # Eve wins iff the explored graph has no cycle (every node was expanded).
    color = dict.fromkeys(edges, 0)

    def cyclic(cfg):
        color[cfg] = 1
        for nxt in edges[cfg]:
            if color[nxt] == 1 or (color[nxt] == 0 and cyclic(nxt)):
                return True
        color[cfg] = 2
        return False

    has_cycle = any(color[cfg] == 0 and cyclic(cfg) for cfg in edges)
    return ("fail" if has_cycle else "ok"), None


def machine_tables(game, machine) -> tuple[dict, dict]:
    """A machine's moves and its full update table, for comparing machines
    whose update functions are closures."""
    arena = game.arena
    updates = {
        (s, u, w): machine.memory.step(s, u, w)
        for s in range(machine.memory.states)
        for u in range(arena.n)
        for w in arena.succ[u]
    }
    return dict(machine.moves), updates
