"""Arena families with known memory demands, plus random instances.

The fixed families are the ones the test suites and the search tools
lean on: the petal flower (Eve needs nearly every visited-subset as
memory), the three-stage picker (Adam must replay Eve's picks), the
flower-plus-chain arena (Eve reverses Adam's petal answers), and the
fixed 14-vertex arena where Adam tracks the missing color.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import UnsupportedInputError
from .fileformat import MAX_COLORS
from .model import Arena, Game, Objective, Owner
from .strategies import FiniteMemoryStrategy, MemoryStructure

FLOWER = "flower"
PICKER = "picker"
FIG4 = "fig4"
FIG5 = "fig5"
RANDOM = "random"

FAMILIES = (FLOWER, PICKER, FIG4, FIG5, RANDOM)


@dataclass(frozen=True)
class GenParams:
    """Parameters for `generate`; the random fields matter only there."""

    family: str
    k: int = 0
    n: int = 0
    density: float = 0.0
    eve_ratio: float = 0.5
    color_size: tuple[int, int] = (1, 2)
    seed: int | None = None


def generate(params: GenParams) -> Game:
    if params.family == FLOWER:
        return gen_flower(params.k)
    if params.family == PICKER:
        return gen_picker(params.k)
    if params.family == FIG4:
        return gen_fig4(params.k)
    if params.family == FIG5:
        if params.k not in (0, 4):
            raise UnsupportedInputError("the fixed arena has exactly 4 colors")
        return gen_fig5()
    if params.family == RANDOM:
        return gen_random(params)
    raise ValueError(f"unknown family '{params.family}'")


def gen_flower(k: int) -> Game:
    """Petal flower: Adam's heart picks a petal, Eve answers.

    Petal i offers a vertex c{i} of color i that returns to the heart,
    and a self-looping vertex b{i} carrying every color except i.  Eve
    wins from the heart but must remember which petals she already
    answered with c{i}.
    """
    if k < 1:
        raise UnsupportedInputError("the flower needs at least one petal")
    names = ["h"]
    owners = [Owner.ADAM]
    edges = []
    color_sets: list[set[int]] = [set() for _ in range(k)]
    for i in range(k):
        v, c, b = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        names += [f"v{i + 1}", f"c{i + 1}", f"b{i + 1}"]
        owners += [Owner.EVE, Owner.EVE, Owner.EVE]
        edges += [(0, v), (v, c), (v, b), (c, 0), (b, b)]
        color_sets[i].add(c)
        for j in range(k):
            if j != i:
                color_sets[j].add(b)
    arena = Arena.from_edges(names, owners, edges)
    return Game(arena, Objective.from_sets(arena.n, color_sets), init=0)


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
    memory = MemoryStructure.from_table(states, {0: 0}, table)
    return FiniteMemoryStrategy(Owner.EVE, memory, moves)


def gen_picker(k: int) -> Game:
    """Three pick stages: Eve, then Adam, then Eve, then an absorbing end.

    Each stage is (k-1)/2 choice vertices in a row, every choice fanning
    out to k single-color pass-through vertices that converge on the
    next choice.  Positions carry no record of earlier picks, so Adam
    can only avoid opening a fresh color by remembering Eve's picks.
    """
    if k < 3 or k % 2 == 0:
        raise UnsupportedInputError("the picker needs an odd color count of at least 3")
    p = (k - 1) // 2
    names: list[str] = []
    owners: list[Owner] = []
    edges: list[tuple[int, int]] = []
    color_sets: list[set[int]] = [set() for _ in range(k)]
    slots = [
        (prefix, owner, j)
        for prefix, owner in (("e1", Owner.EVE), ("a", Owner.ADAM), ("e3", Owner.EVE))
        for j in range(1, p + 1)
    ]
    for index, (prefix, owner, j) in enumerate(slots):
        choice = index * (k + 1)
        names.append(f"{prefix}_{j}")
        owners.append(owner)
        nxt = (index + 1) * (k + 1)  # next choice vertex, or the sink
        for c in range(1, k + 1):
            names.append(f"{prefix}_{j}c{c}")
            owners.append(Owner.EVE)
            edges += [(choice, choice + c), (choice + c, nxt)]
            color_sets[c - 1].add(choice + c)
    sink = len(names)
    names.append("end")
    owners.append(Owner.EVE)
    edges.append((sink, sink))
    arena = Arena.from_edges(names, owners, edges)
    return Game(arena, Objective.from_sets(arena.n, color_sets), init=0)


def gen_fig4(k: int) -> Game:
    """Flower of k/2 Adam petals plus a one-player answer chain.

    Petal i lets Adam visit color 2i-1 or 2i before returning to Eve's
    heart; the chain lets Eve pick one color per pair on her way out.
    She must reverse Adam's petal answers, so her memory grows with the
    subsets of pairs.  All color sets have size 2.
    """
    if k < 2 or k % 2 == 1:
        raise UnsupportedInputError("the two-part arena needs an even color count of at least 2")
    p = k // 2
    names = ["h"] + [f"p{i}" for i in range(1, p + 1)]
    names += [f"a{j}" for j in range(1, k + 1)]
    names += [f"c{i}" for i in range(1, p + 1)]
    names += [f"d{j}" for j in range(1, k + 1)]
    owners = [Owner.EVE] + [Owner.ADAM] * p + [Owner.EVE] * (k + p + k)

    def answer(j: int) -> int:
        return p + j

    def chain(i: int) -> int:
        return p + k + i

    def option(j: int) -> int:
        return p + k + p + j

    edges = [(0, chain(1))]
    for i in range(1, p + 1):
        edges += [(0, i), (i, answer(2 * i - 1)), (i, answer(2 * i))]
        nxt = chain(i + 1) if i < p else None
        for j in (2 * i - 1, 2 * i):
            edges.append((answer(j), 0))
            edges.append((chain(i), option(j)))
            edges.append((option(j), option(j) if nxt is None else nxt))
    color_sets = [{answer(j), option(j)} for j in range(1, k + 1)]
    arena = Arena.from_edges(names, owners, edges)
    return Game(arena, Objective.from_sets(arena.n, color_sets), init=0)


def gen_fig5() -> Game:
    """Fixed 14-vertex arena where Adam must track the missing color.

    Eve's two rails visit colors {1,2} or {3,4}, then one more color of
    the other pair, before handing the play to Adam's hub.  Each hub
    option n{j} exposes every second-column color except j, so Adam
    wins by always playing the option of the one color still missing.
    """
    names = ["v0"] + [f"a{i}" for i in range(1, 5)]
    names += [f"b{i}" for i in range(1, 5)] + ["c"] + [f"n{j}" for j in range(1, 5)]
    owners = [Owner.EVE] * 9 + [Owner.ADAM] + [Owner.EVE] * 4
    hub = 9

    def rail(i: int) -> int:
        return i

    def column(i: int) -> int:
        return 4 + i

    def opt(j: int) -> int:
        return 9 + j

    edges = [(0, rail(1)), (0, rail(3)), (rail(1), rail(2)), (rail(3), rail(4))]
    edges += [(rail(2), column(4)), (rail(2), column(3))]
    edges += [(rail(4), column(2)), (rail(4), column(1))]
    for i in range(1, 5):
        edges.append((column(i), hub))
        edges.append((hub, opt(i)))
    for j in range(1, 5):
        edges += [(opt(j), column(i)) for i in range(1, 5) if i != j]
    color_sets = [{rail(i), column(i)} for i in range(1, 5)]
    arena = Arena.from_edges(names, owners, edges)
    return Game(arena, Objective.from_sets(arena.n, color_sets), init=0)


def gen_random(params: GenParams) -> Game:
    """Seeded uniform game; reproducibility is part of the contract.

    Draw order is fixed (edges, owners, colors, init) so a seed pins
    the instance byte for byte.  The exact edge count is
    round(density * n^2), and dead ends get a self-loop afterwards.
    A game needing more than `MAX_COLORS` draws in all (n owners, the
    edges, and up to min(hi, n) members for each of the k colors) is
    refused before the first draw.
    """
    if params.seed is None:
        raise ValueError("random generation requires a seed")
    n, k = params.n, params.k
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 0:
        raise ValueError("negative color count")
    if not 0.0 <= params.density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if not 0.0 <= params.eve_ratio <= 1.0:
        raise ValueError("eve ratio must lie in [0, 1]")
    lo, hi = params.color_size
    if not 1 <= lo <= hi:
        raise ValueError("color size bounds must satisfy 1 <= lo <= hi")
    m = min(n * n, round(params.density * n * n))
    draws = n + m + k * min(hi, n)
    if draws > MAX_COLORS:
        raise ValueError(
            f"{draws} draws (vertices, edges and color members) exceed the limit {MAX_COLORS}"
        )
    rng = random.Random(params.seed)
    edges = [divmod(cell, n) for cell in rng.sample(range(n * n), m)]
    owners = [
        Owner.EVE if rng.random() < params.eve_ratio else Owner.ADAM
        for _ in range(n)
    ]
    lo, hi = min(lo, n), min(hi, n)
    color_sets = [rng.sample(range(n), rng.randint(lo, hi)) for _ in range(k)]
    init = rng.randrange(n)
    has_succ = [False] * n
    for u, _ in edges:
        has_succ[u] = True
    edges += [(v, v) for v in range(n) if not has_succ[v]]
    arena = Arena.from_edges([f"v{i}" for i in range(n)], owners, edges)
    return Game(arena, Objective.from_sets(n, color_sets), init)
