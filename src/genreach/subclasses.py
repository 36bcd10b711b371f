"""Polynomial solvers for games with small color sets.

Two shapes admit fast algorithms: every color set a single vertex (in
any arena), and color sets of at most two vertices when Eve owns every
vertex (via a reduction to 2-SAT, one call per distinct set of colored
vertices unreachable from a start).  Both revolve around the question
"can the owner force a visit of w starting from v", answered by one
attractor per distinguished vertex w.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .attractor import AttractorResult, _escape, attractor
from .errors import GameParseError, UnsupportedInputError
from .fileformat import _read_dimacs
from .model import Game, Owner, trace_play
from .scc import strongly_connected_components
from .strategies import (
    FiniteMemoryStrategy,
    MemoryStructure,
    SolveResult,
    _LazyMoves,
    identity_memory,
)


def solve_singleton(game: Game) -> SolveResult:
    """Solve a game in which every color set is a single vertex.

    A target t inside the attractor of u has Attr(t) within Attr(u), so
    comparable targets sorted by attractor size form a chain, and a
    target outside its successor's attractor is incomparable with it.
    If the sorted targets chain, Eve wins exactly on the first one's
    attractor, with k memory states that chase the targets in that
    order; one sort and one attractor per distinct target decide it.
    Otherwise the first incomparable pair in color order, found in
    O(t * k) for t distinct targets, hands Adam the whole arena with a
    2-state avoidance strategy.
    """
    arena = game.arena
    objective = game.objective
    for i, members in enumerate(objective.color_sets):
        if len(members) != 1:
            raise UnsupportedInputError(
                f"color {i + 1} has {len(members)} vertices, expected exactly one"
            )
    n = arena.n
    k = objective.k
    everyone = frozenset(range(n))
    if k == 0:
        eve = FiniteMemoryStrategy(Owner.EVE, identity_memory(everyone), {})
        return SolveResult(
            "singleton", everyone, frozenset(), eve_strategy=eve,
            stats={"total": True, "visit_order": []},
        )

    targets = [min(members) for members in objective.color_sets]
    attr = {t: attractor(arena, [t]) for t in set(targets)}
    order = sorted(range(k), key=lambda i: (len(attr[targets[i]].attractor), i))
    chain = [targets[i] for i in order]
    if any(a not in attr[b].attractor for a, b in zip(chain, chain[1:])):
        # The first color of the first incomparable pair is the first
        # color of its target.
        i, j = next(
            (i, j)
            for i in (targets.index(t) for t in dict.fromkeys(targets))
            for j in range(i + 1, k)
            if targets[i] not in attr[targets[j]].attractor
            and targets[j] not in attr[targets[i]].attractor
        )
        return _singleton_adam(game, attr, targets, i, j)

    region = attr[chain[0]].attractor

    def advance(state: int, w: int) -> int:
        nxt = state
        while nxt < k and chain[nxt] == w:
            nxt += 1
        return min(nxt, k - 1)

    initial = {v: advance(0, v) for v in sorted(region)}
    memory = MemoryStructure(k, initial, lambda s, u, w: advance(s, w))
    moves = _LazyMoves(n, lambda v, s: attr[chain[s]].moves.get(v), range(k))
    eve = FiniteMemoryStrategy(Owner.EVE, memory, moves)

    won = [v in region for v in range(n)]
    outside = [o is Owner.ADAM and not w for o, w in zip(arena.owner, won)]
    adam_moves = _LazyMoves(
        n, lambda v, s: _escape(arena.succ, won, v, 0) if outside[v] else None, range(1)
    )
    adam = FiniteMemoryStrategy(Owner.ADAM, identity_memory(everyone - region), adam_moves)
    return SolveResult(
        "singleton", region, everyone - region,
        eve_strategy=eve, adam_strategy=adam,
        stats={"total": True, "visit_order": [i + 1 for i in order]},
    )


def _singleton_adam(
    game: Game,
    attr: Mapping[int, AttractorResult],
    targets: Sequence[int],
    i: int,
    j: int,
) -> SolveResult:
    """Adam wins everywhere off an incomparable target pair.

    State 0 plays the positional complement strategy of the first
    target's attractor; once the play enters that target the memory
    flips and avoids the second one instead.  If the second target is
    seen first, the play already sits outside the first's attractor and
    state 0 keeps it there, so no extra state is needed.  Inside the first
    attractor state 0 may move anywhere: the play reaches the target or
    leaves for good.  It takes the first successor there.
    """
    arena = game.arena
    n, succ = arena.n, arena.succ
    vi, vj = targets[i], targets[j]
    won = [[v in attr[t].attractor for v in range(n)] for t in (vi, vj)]

    def move(v: int, s: int) -> int | None:
        if arena.owner[v] is Owner.EVE or s and won[1][v]:
            return None
        return succ[v][0] if not s and won[0][v] else _escape(succ, won[s], v, 0)

    moves = _LazyMoves(n, move, range(2))
    initial = {v: 1 if v == vi else 0 for v in range(n)}
    memory = MemoryStructure(2, initial, lambda s, u, w: 1 if w == vi else s)
    adam = FiniteMemoryStrategy(Owner.ADAM, memory, moves)
    return SolveResult(
        "singleton", frozenset(), frozenset(range(n)),
        adam_strategy=adam,
        stats={"total": False, "incomparable_colors": (i + 1, j + 1)},
    )


@dataclass(frozen=True)
class TwoSatFormula:
    """CNF with clauses of width two; unit clauses duplicate a literal.

    Literals follow the DIMACS convention: variable v is the positive
    literal v and its negation -v, with 1 <= v <= num_vars.
    """

    num_vars: int
    clauses: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


@dataclass(frozen=True)
class TwoSatResult:
    satisfiable: bool
    assignment: tuple[bool, ...] | None
    conflict_var: int | None


def two_sat_solve(formula: TwoSatFormula) -> TwoSatResult:
    """Linear-time satisfiability via the implication graph.

    UNSAT comes with the first variable sharing a strongly connected
    component with its own negation.
    """

    def node(lit: int) -> int:
        return 2 * (abs(lit) - 1) + (0 if lit > 0 else 1)

    succ: list[list[int]] = [[] for _ in range(2 * formula.num_vars)]
    for a, b in formula.clauses:
        succ[node(-a)].append(node(b))
        succ[node(-b)].append(node(a))
    _, comp = strongly_connected_components(succ)

    for v in range(1, formula.num_vars + 1):
        if comp[2 * (v - 1)] == comp[2 * (v - 1) + 1]:
            return TwoSatResult(False, None, v)
    # Component ids count up in completion order, so the smaller id is
    # further downstream in the implication order and safe to satisfy.
    assignment = tuple(
        comp[2 * i] < comp[2 * i + 1] for i in range(formula.num_vars)
    )
    for a, b in formula.clauses:
        sat_a = assignment[abs(a) - 1] == (a > 0)
        sat_b = assignment[abs(b) - 1] == (b > 0)
        assert sat_a or sat_b, "assignment must satisfy every clause"
    return TwoSatResult(True, assignment, None)


def parse_dimacs_cnf2(text: str) -> TwoSatFormula:
    """Parse DIMACS CNF restricted to clauses of width one or two."""
    num_vars, blocks, clauses, ends = _read_dimacs(text)
    if blocks:
        raise GameParseError("quantifier line in a CNF file", blocks[0][0])
    for clause, lineno in zip(clauses, ends):
        if len(clause) > 2:
            raise GameParseError(
                f"clause has {len(clause)} literals, at most two allowed", lineno
            )
    return TwoSatFormula(num_vars, tuple((c[0], c[-1]) for c in clauses))


def solve_oneplayer_size2(game: Game) -> SolveResult:
    """Solve an all-Eve game whose color sets have at most two vertices.

    Eve wins from v iff she can visit one vertex per color along a
    single path, which a 2-SAT formula over the colored vertices
    expresses: incomparable vertices exclude each other, each color
    demands a member, and unit clauses drop members unreachable from v.
    The formula depends on v only through its cut, the occurrences v
    cannot reach, so each distinct cut is solved once and
    `stats["sat_calls"]` counts those calls.  A witness play is rebuilt
    from the satisfying assignment of init's cut.
    """
    arena = game.arena
    objective = game.objective
    for v in range(arena.n):
        if not arena.is_eve(v):
            raise UnsupportedInputError(
                f"vertex '{arena.names[v]}' belongs to the opponent"
            )
    for i, members in enumerate(objective.color_sets):
        if len(members) > 2:
            raise UnsupportedInputError(
                f"color {i + 1} has {len(members)} vertices, at most two allowed"
            )
    n = arena.n
    k = objective.k
    everyone = frozenset(range(n))
    if k == 0:
        witness = (game.init,) if game.init is not None else None
        eve = FiniteMemoryStrategy(Owner.EVE, identity_memory(everyone), {})
        return SolveResult(
            "oneplayer2", everyone, frozenset(), eve_strategy=eve,
            witness=witness, stats={"variables": 0, "clauses": 0},
        )
    for i, members in enumerate(objective.color_sets):
        if not members:
            adam = FiniteMemoryStrategy(Owner.ADAM, identity_memory(everyone), {})
            return SolveResult(
                "oneplayer2", frozenset(), everyone, adam_strategy=adam,
                stats={"empty_color": i + 1},
            )

    # One variable per (color, vertex) occurrence; a singleton color
    # contributes a single variable that its width-two clause repeats.
    occ: list[tuple[int, int]] = []
    for i, members in enumerate(objective.color_sets):
        occ.extend((i, v) for v in sorted(members))
    nvars = len(occ)
    attr = {w: attractor(arena, [w]) for w in {v for _, v in occ}}
    reach = {w: r.attractor for w, r in attr.items()}

    static: list[tuple[int, int]] = []
    for p in range(nvars):
        for q in range(p + 1, nvars):
            vp, vq = occ[p][1], occ[q][1]
            if vp not in reach[vq] and vq not in reach[vp]:
                static.append((-(p + 1), -(q + 1)))
    incomparable = len(static)
    var = 1
    for members in objective.color_sets:
        static.append((var, var + len(members) - 1))
        var += len(members)

    decided: dict[tuple[int, ...], TwoSatResult] = {}
    eve_region = set()
    init_assignment = None
    for v in range(n):
        cut = tuple(p + 1 for p in range(nvars) if v not in reach[occ[p][1]])
        if cut not in decided:
            units = [(-p, -p) for p in cut]
            decided[cut] = two_sat_solve(TwoSatFormula(nvars, tuple(static + units)))
        result = decided[cut]
        if result.satisfiable:
            eve_region.add(v)
            if v == game.init:
                init_assignment = result.assignment

    witness = None
    if init_assignment is not None:
        witness = _size2_witness(game, attr, occ, init_assignment)
    return SolveResult(
        "oneplayer2", frozenset(eve_region), everyone - eve_region,
        witness=witness,
        stats={
            "variables": nvars,
            "clauses": len(static),
            "incomparable_pairs": incomparable,
            "sat_calls": len(decided),
        },
    )


def _size2_witness(
    game: Game,
    attr: Mapping[int, AttractorResult],
    occ: Sequence[tuple[int, int]],
    assignment: Sequence[bool],
) -> tuple[int, ...]:
    """Chain one chosen vertex per color into a play visiting them all.

    The formula makes the chosen stops a chain that init reaches, and
    in a chain a stop inside the next one's attractor has the smaller
    attractor, so the stops follow init in order of attractor size.
    Each leg follows the next stop's attractor moves; every vertex is
    Eve's, so the attractor is won breadth-first and each leg is a
    shortest path.
    """
    arena = game.arena
    chosen: dict[int, int] = {}
    for p, (color, v) in enumerate(occ):
        if assignment[p] and color not in chosen:
            chosen[color] = v
    stops = set(chosen.values()) - {game.init}
    path = [game.init]
    for b in sorted(stops, key=lambda v: (len(attr[v].attractor), v)):
        assert path[-1] in attr[b].attractor, "the stops must form a chain from init"
        while path[-1] != b:
            path.append(attr[b].moves[path[-1]])
    play = trace_play(game, path)
    assert play.masks[-1] == game.objective.full_mask, (
        "witness play must collect every color"
    )
    assert len(path) - 1 <= arena.n * game.objective.k
    return tuple(path)
