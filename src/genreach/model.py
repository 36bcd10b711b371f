"""Core data model: arenas, objectives, games and plays.

Vertices carry dense indices 0..n-1 internally; human-readable names live
on the arena and are used by every file format and report.  Colors are
numbered 1..k externally and stored as bit positions 0..k-1 in per-vertex
membership masks, which is the representation the bitmask solvers use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

from .errors import UnsupportedInputError

# The most bits all of a game's color masks may take together.
MAX_MASK_BITS = 1 << 30


class Owner(Enum):
    """Which player chooses the successor at a vertex."""

    EVE = "eve"
    ADAM = "adam"


@dataclass(frozen=True)
class Arena:
    """Finite directed graph with a two-way vertex-owner partition.

    Successor lists are kept sorted; duplicate edges are representable
    (so that validation can report them) but rejected by `validate_arena`,
    which every solver presumes has passed.  `_pred`, the predecessor
    lists in ascending order, is built once on first use and shared by
    every attractor and product solve over the arena; so is `_need`,
    each vertex's initial attractor counter.
    """

    names: tuple[str, ...]
    owner: tuple[Owner, ...]
    succ: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.names)
        if len(self.owner) != n or len(self.succ) != n:
            raise ValueError("names, owner and succ must have equal length")
        for u, targets in enumerate(self.succ):
            for v in targets:
                if not 0 <= v < n:
                    raise ValueError(f"edge ({u}, {v}) out of range")

    @classmethod
    def from_edges(
        cls,
        names: Sequence[str],
        owner: Sequence[Owner],
        edges: Iterable[tuple[int, int]],
    ) -> "Arena":
        # Sources index `lists`; targets are checked by `__post_init__`.
        n = len(names)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not 0 <= u < n:
                raise ValueError(f"edge ({u}, {v}) out of range")
            lists[u].append(v)
        return cls(tuple(names), tuple(owner), tuple(tuple(sorted(l)) for l in lists))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.succ)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in range(self.n) for v in self.succ[u])

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _pred(self) -> tuple[tuple[int, ...], ...]:
        pred: list[list[int]] = [[] for _ in range(self.n)]
        for u, targets in enumerate(self.succ):
            for v in targets:
                pred[v].append(u)
        return tuple(map(tuple, pred))

    @cached_property
    def _need(self) -> tuple[int, ...]:
        """1 at an Eve vertex, the successor count at an Adam one."""
        return tuple(1 if o is Owner.EVE else len(s) for o, s in zip(self.owner, self.succ))

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no vertex named {name!r}") from None

    def is_eve(self, v: int) -> bool:
        return self.owner[v] is Owner.EVE


@dataclass(frozen=True)
class Objective:
    """A family of k vertex sets over vertices 0..n-1 that must all be visited.

    `mask[v]` is the bitmask of colors that vertex v carries.  It is derived
    from `color_sets` once, on construction, which is also the one place a
    member is checked to be a vertex.  Each mask is as wide as its vertex's
    highest color, and masks of more than `MAX_MASK_BITS` bits in all are
    refused before any is built.
    """

    n: int
    color_sets: tuple[frozenset[int], ...]
    mask: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sets = self.color_sets
        if self.n * len(sets) > MAX_MASK_BITS:
            top: dict[int, int] = {}
            for i, members in enumerate(sets):
                top.update(dict.fromkeys(members, i + 1))
            bits = sum(top.values())
            if bits > MAX_MASK_BITS:
                raise UnsupportedInputError(
                    f"color masks of {bits} bits exceed the limit {MAX_MASK_BITS}"
                )
        mask = [0] * self.n
        for i in compress(range(len(sets)), sets):  # skips the empty sets
            for v in sets[i]:
                if not 0 <= v < self.n:
                    raise ValueError(f"color {i + 1} contains out-of-range vertex {v}")
                mask[v] |= 1 << i
        object.__setattr__(self, "mask", tuple(mask))

    @classmethod
    def from_sets(cls, n: int, color_sets: Iterable[Iterable[int]]) -> "Objective":
        return cls(n, tuple(frozenset(s) for s in color_sets))

    @property
    def k(self) -> int:
        return len(self.color_sets)

    @property
    def full_mask(self) -> int:
        return (1 << self.k) - 1


# Turns the digit 0 into a false byte, so `compress` keeps the 1 digits.
_NUL = bytes.maketrans(b"0", b"\0")


def _bits(x: int) -> list[int]:
    """The set bits of x, ascending.  A sparse x is read by `str.find`
    jumps between its set digits, a dense one by `compress` over all its
    digits, so the time follows the set bits or the length, whichever is
    less."""
    digits = bin(x)[:1:-1]
    if x.bit_count() << 3 < x.bit_length():
        out = []
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    flags = digits.encode().translate(_NUL)
    return list(compress(range(len(flags)), flags))


@dataclass(frozen=True)
class Game:
    """An arena, a visit-everything objective over it, and an optional start."""

    arena: Arena
    objective: Objective
    init: int | None = None

    def __post_init__(self):
        if self.objective.n != self.arena.n:
            raise ValueError("objective is over a different vertex count")
        if self.init is not None and not 0 <= self.init < self.arena.n:
            raise ValueError(f"init vertex {self.init} out of range")

    @property
    def k(self) -> int:
        return self.objective.k

    def colors(self, v: int) -> int:
        return self.objective.mask[v]


@dataclass(frozen=True)
class Play:
    """A finite play prefix: vertices plus the visited-colors mask at each step."""

    vertices: tuple[int, ...]
    masks: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.masks) or not self.vertices:
            raise ValueError("a play needs one mask per vertex and at least one vertex")


def trace_play(game: Game, vertices: Sequence[int]) -> Play:
    """Build a Play from a vertex sequence, accumulating visited colors."""
    masks = []
    mask = 0
    for v in vertices:
        mask |= game.colors(v)
        masks.append(mask)
    return Play(tuple(vertices), tuple(masks))


def validate_arena(arena: Arena) -> list[str]:
    """Return the list of violations (empty means the arena is well formed).

    The conditions here are exactly what every solver in the package
    presumes: at least one vertex, no dead ends, no duplicate edges.
    """
    violations = []
    if arena.n == 0:
        violations.append("arena has no vertices")
    for v, targets in enumerate(arena.succ):
        if not targets:
            violations.append(f"dead end at vertex '{arena.names[v]}'")
        for a, b in zip(targets, targets[1:]):
            if a == b:
                violations.append(
                    f"duplicate edge '{arena.names[v]}' -> '{arena.names[a]}'"
                )
    return violations
