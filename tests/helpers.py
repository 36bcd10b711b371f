"""Builders, oracles and the flower lab shared by the test modules."""

import dataclasses
import random
from collections import deque
from dataclasses import dataclass

from typing import Iterable

from hypothesis import strategies as st

from genreach import (
    Arena,
    FiniteMemoryStrategy,
    Game,
    GenParams,
    MemoryStructure,
    Objective,
    Owner,
    Play,
    UnsupportedInputError,
    gen_flower,
    generate,
    minimax_oracle,
)
from genreach.lab import COLOR_OBS, _explore, _lasso, _machine_from


def diagonal_colors_text(n: int) -> str:
    """Game text of an n-cycle whose vertex i carries color i + 1 of n, so
    its color masks take n(n+1)/2 bits in all."""
    lines = ["genreach 1", f"colors {n}"]
    lines += [f"vertex v{i} eve {i + 1}" for i in range(n)]
    lines += [f"edge v{i} v{(i + 1) % n}" for i in range(n)]
    return "\n".join(lines) + "\n"


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


# Every vertex of mask 0 meets the sweep's jump fold: (e, 0) wins only by
# its jump to g, (a, 0) has a losing jump to h, every move of (b, 0) jumps
# to a win, and (c, 0) wins in-level through b.
FOLD_TEXT = """\
genreach 1
colors 2
vertex e eve
vertex a adam
vertex b adam
vertex c eve
vertex g adam 1 2
vertex h adam 1
edge e e
edge e g
edge a e
edge a h
edge b g
edge c a
edge c b
edge g g
edge h h
init e
"""


def padded_hub(n: int, k: int, colors: int | None = None) -> Game:
    """Eve's hub h moves to k spokes, spoke i carrying color i and moving
    back to h, so plays reach all 2^k masks; the n - k - 1 uncolored pads
    move to h and raise n.  With n * 2^k over `MAX_CONFIGS` it takes the
    sweep, which allocates a row of n bytes per reached mask.  With
    `colors` the game declares that many colors and spoke i carries color
    colors - k + i, so each mask a spoke adds is an int of `colors` bits."""
    colors = k if colors is None else colors
    names = ["h"] + [f"s{i}" for i in range(1, k + 1)] + [f"p{i}" for i in range(n - k - 1)]
    owners = [Owner.EVE] * n
    edges = [(0, i) for i in range(1, k + 1)] + [(i, 0) for i in range(1, n)]
    sets = [frozenset()] * (colors - k) + [{i} for i in range(1, k + 1)]
    objective = Objective.from_sets(n, sets)
    return Game(Arena.from_edges(names, owners, edges), objective, init=0)


def minimax_region(game: Game) -> frozenset[int]:
    """Eve's winning region computed one start vertex at a time."""
    return frozenset(
        v
        for v in range(game.arena.n)
        if minimax_oracle(dataclasses.replace(game, init=v)) is Owner.EVE
    )


def check_play(game: Game, play: Play) -> None:
    """Raise if the play is not a legal prefix of the game."""
    arena = game.arena
    mask = game.colors(play.vertices[0])
    if play.masks[0] != mask:
        raise InvalidPlay("initial mask is wrong")
    for (u, v), prev_mask, cur_mask in zip(
        zip(play.vertices, play.vertices[1:]), play.masks, play.masks[1:]
    ):
        if v not in arena.succ[u]:
            raise InvalidPlay(f"({arena.names[u]}, {arena.names[v]}) is not an edge")
        if cur_mask != prev_mask | game.colors(v):
            raise InvalidPlay("visited mask does not accumulate colors")


class InvalidPlay(ValueError):
    pass


def explicit_product(game: Game) -> tuple[dict, dict]:
    """The product solved the long way, as an oracle for the level sweep.

    Every (vertex, mask) configuration is built, the full-mask ones
    absorbing, and the counter attractor of the full-mask configurations
    is computed over predecessor lists.  Returns `rank` (-1 outside the
    attractor) and Adam's first escape from each losing Adam
    configuration, both keyed by (v, m)."""
    arena = game.arena
    vm = game.objective.mask
    full = game.objective.full_mask
    configs = [(v, m) for v in range(arena.n) for m in range(full + 1)]
    succ = {
        (v, m): [] if m == full else [(w, m | vm[w]) for w in arena.succ[v]]
        for v, m in configs
    }
    pred = {c: [] for c in configs}
    for c, row in succ.items():
        for d in row:
            pred[d].append(c)
    rank = {(v, m): 0 if m == full else -1 for v, m in configs}
    counter = {c: len(row) for c, row in succ.items()}
    queue = deque(c for c in configs if rank[c] == 0)
    while queue:
        d = queue.popleft()
        for c in pred[d]:
            if rank[c] != -1:
                continue
            counter[c] -= 1
            if arena.owner[c[0]] is Owner.EVE or counter[c] == 0:
                rank[c] = rank[d] + 1
                queue.append(c)
    escape = {
        (v, m): next(d[0] for d in succ[(v, m)] if rank[d] == -1)
        for v, m in configs
        if rank[(v, m)] == -1 and arena.owner[v] is Owner.ADAM
    }
    return rank, escape


def antichain_table(
    adam_region: Iterable[tuple[int, int]], n: int
) -> list[tuple[int, ...]]:
    """Maximal masks per vertex of a (vertex, mask) region, ascending; an
    oracle for the antichains `compress_adam` reads off the dense kernel.

    The region must be downward closed in the mask coordinate; anything
    else is refused.
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
                    raise UnsupportedInputError(
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
    return rows


def random_qdimacs(rng: random.Random) -> str:
    """QDIMACS text of a random formula: 1 to 12 variables in quantifier
    blocks of 1 to 3, and 1 to 8 clauses of 1 to 3 literals."""
    num_vars = rng.randrange(1, 13)
    clauses = rng.randrange(1, 9)
    lines = [f"p cnf {num_vars} {clauses}"]
    var = 1
    while var <= num_vars:
        block = min(num_vars, var + rng.randrange(0, 3))
        block_vars = " ".join(str(v) for v in range(var, block + 1))
        lines.append(f"{rng.choice('ae')} {block_vars} 0")
        var = block + 1
    for _ in range(clauses):
        width = rng.randrange(1, 4)
        lits = [rng.choice((-1, 1)) * rng.randrange(1, num_vars + 1) for _ in range(width)]
        lines.append(" ".join(str(lit) for lit in lits) + " 0")
    return "\n".join(lines) + "\n"


def table_memory(states, initial, table) -> MemoryStructure:
    """The memory of an explicit update table keyed by (state, u, w);
    an edge absent from it stays in its state."""
    table = dict(table)
    return MemoryStructure(states, initial, lambda s, u, w: table.get((s, u, w), s))


def table_moves(table):
    """The move function of an explicit table keyed by (vertex, state)."""
    table = dict(table)
    return lambda v, s: table.get((v, s))


def held_moves(strategy: FiniteMemoryStrategy, n: int) -> dict[tuple[int, int], int]:
    """Every move `strategy.moves` gives on vertices below n, keyed by
    (vertex, state), vertex-major."""
    moves, states = strategy.moves, strategy.memory.states
    pairs = ((v, s, moves(v, s)) for v in range(n) for s in range(states))
    return {(v, s): w for v, s, w in pairs if w is not None}


def random_machine(
    game: Game, player: Owner, states: int, rng: random.Random
) -> FiniteMemoryStrategy:
    """A uniformly random finite-memory strategy for one player, from
    state 0 at every vertex."""
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
    initial = dict.fromkeys(range(arena.n), 0)
    return FiniteMemoryStrategy(player, table_memory(states, initial, table), table_moves(moves))


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
            if cell < 0:
                values = list(range(len(succ[~cell // states])))
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
                if frame[0] >= 0:
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
    "ok" for a fully defined candidate.  Cells are the ints of
    `lab._search_at`."""
    arena = game.arena
    succ, owner, n = arena.succ, arena.owner, arena.n
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
            cell = ~(v * states + state)
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
                cell = state << k | mask_of[w] if color_obs else (state * n + v) * n + w
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
        (s, u, w): machine.memory.update(s, u, w)
        for s in range(machine.memory.states)
        for u in range(arena.n)
        for w in arena.succ[u]
    }
    return held_moves(machine, arena.n), updates


# The flower lab: the k-petal flower's optimal Eve machine, a simulator of
# two machines, and the adversary that beats every Eve machine with fewer
# than 2^k - 1 states, the paper's lower bound that criterion 06 checks.


def canonical_flower_eve(k: int) -> FiniteMemoryStrategy:
    """The flower strategy over visited-petal subsets, full set pruned.

    State S is the set of petals already answered with their color
    vertex; the first visit of petal i takes c{i} and records it, the
    second takes b{i} and wins.  2^k - 1 states, from the heart.
    """
    if k < 1:
        raise UnsupportedInputError("the flower needs at least one petal")
    states = full = (1 << k) - 1
    table: dict[tuple[int, int, int], int] = {}
    moves: dict[tuple[int, int], int] = {}
    for state in range(states):
        for i in range(k):
            v, c, b = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
            moves[(v, state)] = b if state >> i & 1 else c
            marked = state | 1 << i
            if marked not in (state, full):
                table[(state, v, c)] = marked
    return FiniteMemoryStrategy(Owner.EVE, table_memory(states, {0: 0}, table), table_moves(moves))


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
    adam = FiniteMemoryStrategy(Owner.ADAM, memory, table_moves(adam_moves))

    outcome = simulate(game, eve_machine, adam)
    if outcome.winner is not Owner.ADAM:
        raise AssertionError("the adversary construction must win; this is a bug")
    vertices = outcome.play.vertices
    petals = tuple(
        vertices[i + 1] for i in range(len(vertices) - 1) if vertices[i] == heart
    )
    return FlowerRefutation(k, x, tuple(stopping), adam, petals, outcome)


_EDITS = ("drop", "duplicate", "swap-lines", "swap-tokens", "insert-integer")


@st.composite
def mutated(draw, text: str, integers):
    """`text` after one to four random edits of its lines and tokens; an
    inserted token is drawn from `integers`."""
    lines = [line.split() for line in text.splitlines()]
    for op in draw(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=4)):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, list(lines[i]))
        elif op == "swap-lines":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "swap-tokens" and lines[i] and lines[j]:
            a = draw(st.integers(0, len(lines[i]) - 1))
            b = draw(st.integers(0, len(lines[j]) - 1))
            lines[i][a], lines[j][b] = lines[j][b], lines[i][a]
        elif op == "insert-integer":
            at = draw(st.integers(0, len(lines[i])))
            lines[i].insert(at, str(draw(integers)))
    return "".join(" ".join(tokens) + "\n" for tokens in lines)
