"""Finite-memory strategies and the common solver result record.

A strategy is a memory structure (deterministic automaton over edges) plus
a move table indexed by (vertex, memory state).  Memory updates happen on
every edge, including the opponent's; moves are only consulted at vertices
the strategy's player owns.

The initial memory state may depend on the start vertex.  Strategies whose
memory tracks the colors seen so far need this: the start vertex's own
colors count as visited, so plays from different vertices begin in
different states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import StrategyPartialError, UnsupportedInputError
from .model import Arena, Owner


@dataclass(frozen=True, eq=False)
class MemoryStructure:
    """Deterministic automaton whose input alphabet is the arena's edges."""

    states: int
    initial: int | Mapping[int, int]
    update: Callable[[int, int, int], int]

    def initial_state(self, v: int) -> int:
        if isinstance(self.initial, int):
            return self.initial
        try:
            return self.initial[v]
        except KeyError:
            raise StrategyPartialError(
                f"no initial memory state for start vertex {v}"
            ) from None

    def step(self, state: int, u: int, v: int) -> int:
        return self.update(state, u, v)

    @classmethod
    def from_table(
        cls,
        states: int,
        initial: int | Mapping[int, int],
        table: Mapping[tuple[int, int, int], int],
    ) -> "MemoryStructure":
        """Explicit transition table; entries absent from it mean 'stay'."""
        frozen = dict(table)
        return cls(states, initial, lambda s, u, v: frozen.get((s, u, v), s))


def identity_memory() -> MemoryStructure:
    """The one-state memory of a positional strategy."""
    return MemoryStructure(1, 0, lambda s, u, v: 0)


@dataclass(frozen=True, eq=False)
class FiniteMemoryStrategy:
    """Moves for one player, driven by a finite memory over observed edges.

    `move` plays the held move, else the only successor, and otherwise
    raises: a strategy answers only where it has a move.  Solver
    strategies start only on their own player's winning region, where
    every position a play can reach holds one.  A held move that is not
    an edge of the arena raises `UnsupportedInputError`.
    """

    player: Owner
    memory: MemoryStructure
    moves: Mapping[tuple[int, int], int]

    def move(self, arena: Arena, v: int, state: int) -> int:
        target = self.moves.get((v, state))
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


def strategy_to_json(
    arena: Arena,
    strategy: FiniteMemoryStrategy,
    start: Iterable[int] | None = None,
) -> dict:
    """JSON-ready dict with only the (vertex, state) pairs reachable from
    `start` (default: every vertex the strategy has an initial state for).

    Only moves `move` gives are written: a pair of the strategy's player
    with no move is left out and not expanded, so a file holds no guessed
    move.  For `solve_fpt` strategies such pairs lie only on walks past
    the full mask, which no play needs."""
    if start is None:
        if isinstance(strategy.memory.initial, int):
            start = range(arena.n)
        else:
            start = sorted(strategy.memory.initial)
    start = list(start)

    seen: set[tuple[int, int]] = set()
    queue = [(v, strategy.memory.initial_state(v)) for v in start]
    seen.update(queue)
    moves: dict[tuple[int, int], int] = {}
    updates: dict[tuple[int, int, int], int] = {}
    while queue:
        v, state = queue.pop()
        if arena.owner[v] is strategy.player:
            try:
                targets = [strategy.move(arena, v, state)]
            except StrategyPartialError:
                continue
            moves[(v, state)] = targets[0]
        else:
            targets = list(arena.succ[v])
        for w in targets:
            nxt = strategy.memory.step(state, v, w)
            if nxt != state:
                updates[(state, v, w)] = nxt
            if (w, nxt) not in seen:
                seen.add((w, nxt))
                queue.append((w, nxt))

    if isinstance(strategy.memory.initial, int):
        initial_json: int | dict = strategy.memory.initial
    else:
        initial_json = {
            "per_vertex": {
                arena.names[v]: s for v, s in sorted(strategy.memory.initial.items())
            }
        }
    return {
        "player": strategy.player.value,
        "states": strategy.memory.states,
        "initial": initial_json,
        "update": [
            {
                "state": s,
                "from": arena.names[u],
                "to": arena.names[w],
                "next_state": nxt,
            }
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

    initial: int | dict[int, int]
    if isinstance(raw_initial, dict):
        per_vertex = raw_initial["per_vertex"]
        if not isinstance(per_vertex, dict):
            raise ValueError("per_vertex must map vertex names to states")
        initial = {
            arena.index_of(name): check_state(s)
            for name, s in per_vertex.items()
        }
    else:
        initial = check_state(raw_initial)

    table: dict[tuple[int, int, int], int] = {}
    for entry in update_entries:
        u = arena.index_of(entry["from"])
        w = arena.index_of(entry["to"])
        if w not in arena.succ[u]:
            raise ValueError(
                f"update on ({entry['from']}, {entry['to']}), which is not an edge"
            )
        table[(check_state(entry["state"]), u, w)] = check_state(entry["next_state"])

    moves: dict[tuple[int, int], int] = {}
    for entry in move_entries:
        v = arena.index_of(entry["vertex"])
        w = arena.index_of(entry["successor"])
        if arena.owner[v] is not player:
            raise ValueError(f"move at {entry['vertex']!r}, which {player.value} does not own")
        if w not in arena.succ[v]:
            raise ValueError(
                f"move ({entry['vertex']}, {entry['successor']}) is not an edge"
            )
        moves[(v, check_state(entry["state"]))] = w

    memory = MemoryStructure.from_table(states, initial, table)
    return FiniteMemoryStrategy(player, memory, moves)


def dump_strategy(arena: Arena, strategy: FiniteMemoryStrategy, **kwargs) -> str:
    return json.dumps(strategy_to_json(arena, strategy, **kwargs), indent=2) + "\n"


def load_strategy(arena: Arena, text: str) -> FiniteMemoryStrategy:
    return strategy_from_json(arena, json.loads(text))


@dataclass
class SolveResult:
    """What every solve routine returns.

    Regions always partition the vertex set.  Strategies may be None when
    the chosen method does not produce one for that player.  `witness` is
    a play prefix (vertex indices) demonstrating the answer when the
    method yields one.  `stats` carries method-specific counters.
    """

    method: str
    eve_region: frozenset[int]
    adam_region: frozenset[int]
    eve_strategy: FiniteMemoryStrategy | None = None
    adam_strategy: FiniteMemoryStrategy | None = None
    witness: tuple[int, ...] | None = None
    stats: dict = field(default_factory=dict)

    def winner(self, v: int) -> Owner:
        return Owner.EVE if v in self.eve_region else Owner.ADAM
