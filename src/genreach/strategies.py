"""Finite-memory strategies and the common solver result record.

A strategy is a memory structure (deterministic automaton over edges) plus
a move function of (vertex, memory state) that gives the move or None.
Both the memory's `update` and the moves are functions: every solver
answers them on lookup, and `strategy_from_json` builds both over the
tables it reads, checking each field of a row once, in the row's order.
Memory updates happen on every edge, including the opponent's; moves are
only consulted at vertices the strategy's player owns.

A memory structure maps each start vertex it claims to an initial state.
Strategies whose memory tracks the colors seen so far need this: the start
vertex's own colors count as visited, so plays from different vertices
begin in different states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping

from .errors import StrategyPartialError, UnsupportedInputError
from .model import Arena, Owner


@dataclass(frozen=True, eq=False)
class MemoryStructure:
    """Deterministic automaton whose input alphabet is the arena's edges.

    `initial` maps each start vertex the machine claims to its state."""

    states: int
    initial: Mapping[int, int]
    update: Callable[[int, int, int], int]

    def initial_state(self, v: int) -> int:
        try:
            return self.initial[v]
        except KeyError:
            raise StrategyPartialError(
                f"no initial memory state for start vertex {v}"
            ) from None


def identity_memory(starts: Iterable[int]) -> MemoryStructure:
    """The one-state memory of a positional strategy, from `starts`."""
    return MemoryStructure(1, dict.fromkeys(sorted(starts), 0), lambda s, u, v: 0)


@dataclass(frozen=True, eq=False)
class FiniteMemoryStrategy:
    """Moves for one player, driven by a finite memory over observed edges.

    `moves(v, state)` gives the held move or None, and is asked only
    for a state of the memory.  `move` plays the held move, else the
    only successor, and otherwise raises: a strategy answers only where
    it has a move, and never for a state outside the memory.  Solver
    strategies start only on their own player's winning region, where
    every position a play can reach holds one.  A held move that is not
    an edge of the arena raises `UnsupportedInputError`.
    """

    player: Owner
    memory: MemoryStructure
    moves: Callable[[int, int], int | None]

    def move(self, arena: Arena, v: int, state: int) -> int:
        if not 0 <= state < self.memory.states:
            raise StrategyPartialError(
                f"memory state {state} out of range 0..{self.memory.states - 1}"
            )
        target = self.moves(v, state)
        if target is not None:
            if target not in arena.succ[v]:
                raise UnsupportedInputError(
                    f"strategy moved along ({arena.names[v]}, {arena.names[target]}),"
                    " which is not an edge"
                )
            return target
        succ = arena.succ[v]
        if len(succ) == 1:
            return succ[0]
        raise StrategyPartialError(
            f"no move for vertex {arena.names[v]!r} in memory state {state}"
        )


def strategy_to_json(arena: Arena, strategy: FiniteMemoryStrategy) -> dict:
    """JSON-ready dict with only the (vertex, state) pairs reachable from
    the strategy's start vertices.

    Only moves `move` gives are written: a pair of the strategy's player
    with no move is left out and not expanded, so a file holds no guessed
    move.  For `solve_fpt` strategies such pairs lie only on walks past
    the full mask, which no play needs."""
    owner, succ, player = arena.owner, arena.succ, strategy.player
    move, update = strategy.move, strategy.memory.update
    initial = sorted(strategy.memory.initial.items())
    queue = list(initial)
    seen = set(initial)
    moves: dict[tuple[int, int], int] = {}
    updates: dict[tuple[int, int, int], int] = {}
    while queue:
        v, state = pair = queue.pop()
        if owner[v] is player:
            try:
                w = move(arena, v, state)
            except StrategyPartialError:
                continue
            moves[pair] = w
            targets = (w,)
        else:
            targets = succ[v]
        for w in targets:
            nxt = update(state, v, w)
            if nxt != state:
                updates[(state, v, w)] = nxt
            pair = (w, nxt)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)

    return {
        "player": strategy.player.value,
        "states": strategy.memory.states,
        "initial": {"per_vertex": {arena.names[v]: s for v, s in initial}},
        "update": [
            {"state": s, "from": arena.names[u], "to": arena.names[w], "next_state": nxt}
            for (s, u, w), nxt in sorted(updates.items())
        ],
        "moves": [
            {"vertex": arena.names[v], "state": s, "successor": arena.names[w]}
            for (v, s), w in sorted(moves.items())
        ],
    }


def strategy_from_json(arena: Arena, data: dict) -> FiniteMemoryStrategy:
    try:
        player = Owner(data["player"])
        states = data["states"]
        raw_initial = data["initial"]
        update_entries = data.get("update", [])
        move_entries = data.get("moves", [])
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from exc
    # Counts and states are JSON integers only; `type` refuses bools too.
    if type(states) is not int or states < 1:
        raise ValueError(f"a strategy needs at least one memory state, as a JSON integer, not {states!r}")

    def check_state(s) -> int:
        if type(s) is not int:
            raise ValueError(f"memory state {s!r} is not a JSON integer")
        if not 0 <= s < states:
            raise ValueError(f"memory state {s} out of range 0..{states - 1}")
        return s

    try:
        per_vertex = raw_initial["per_vertex"]
    except TypeError:  # a bare state, the older form, starts at every vertex
        per_vertex = dict.fromkeys(arena.names, raw_initial)
    if not isinstance(per_vertex, dict):
        raise ValueError("per_vertex must map vertex names to states")
    initial = {arena.index_of(name): check_state(s) for name, s in per_vertex.items()}

    index_of, owner, succ = arena.index_of, arena.owner, arena.succ
    table: dict[tuple[int, int, int], int] = {}
    for entry in update_entries:
        u, w = index_of(entry["from"]), index_of(entry["to"])
        if w not in succ[u]:
            raise ValueError(f"update on ({entry['from']}, {entry['to']}), which is not an edge")
        # next_state is checked before state: of two faults, it is named.
        nxt = check_state(entry["next_state"])
        table[(check_state(entry["state"]), u, w)] = nxt

    moves: dict[tuple[int, int], int] = {}
    for entry in move_entries:
        v, w = index_of(entry["vertex"]), index_of(entry["successor"])
        if owner[v] is not player:
            raise ValueError(f"move at {entry['vertex']!r}, which {player.value} does not own")
        if w not in succ[v]:
            raise ValueError(f"move ({entry['vertex']}, {entry['successor']}) is not an edge")
        moves[(v, check_state(entry["state"]))] = w

    # An edge with no update row stays in its state.
    memory = MemoryStructure(states, initial, lambda s, u, w: table.get((s, u, w), s))
    return FiniteMemoryStrategy(player, memory, lambda v, s: moves.get((v, s)))


def dump_strategy(arena: Arena, strategy: FiniteMemoryStrategy) -> str:
    return json.dumps(strategy_to_json(arena, strategy), separators=(",", ":")) + "\n"


def load_strategy(arena: Arena, text: str) -> FiniteMemoryStrategy:
    return strategy_from_json(arena, json.loads(text))


@dataclass
class SolveResult:
    """What every solve routine returns.

    Regions always partition the vertex set.  Strategies may be None when
    the chosen method does not produce one for that player.  `witness` is
    a play prefix (vertex indices) demonstrating the answer when the
    method yields one.  `stats` carries method-specific counters, and
    `phases` the seconds of each phase of the solve, for a solver that
    times them; results that differ only there compare equal.
    """

    method: str
    eve_region: frozenset[int]
    adam_region: frozenset[int]
    eve_strategy: FiniteMemoryStrategy | None = None
    adam_strategy: FiniteMemoryStrategy | None = None
    witness: tuple[int, ...] | None = None
    stats: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict, compare=False)

    def winner(self, v: int) -> Owner:
        return Owner.EVE if v in self.eve_region else Owner.ADAM
