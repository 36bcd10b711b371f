"""Core data model: arenas, objectives, games and plays.

Vertices carry dense indices 0..n-1 internally; human-readable names live
on the arena and are used by every file format and report.  Colors are
numbered 1..k externally and stored as bit positions 0..k-1 in per-vertex
membership masks, which is the representation the bitmask solvers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

# Bitmask-based methods refuse instances with more colors than this.
DEFAULT_COLOR_CAP = 20


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
    every attractor and product solve over the arena.
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
        n = len(names)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
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

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no vertex named {name!r}") from None

    def is_eve(self, v: int) -> bool:
        return self.owner[v] is Owner.EVE


@dataclass(frozen=True)
class Objective:
    """A family of k vertex sets that must all be visited.

    `mask[v]` is the bitmask of colors that vertex v carries; it is derived
    from `color_sets` and checked for agreement on construction.
    """

    k: int
    color_sets: tuple[frozenset[int], ...]
    mask: tuple[int, ...]

    def __post_init__(self):
        if self.k != len(self.color_sets):
            raise ValueError("k disagrees with the number of color sets")
        n = len(self.mask)
        derived = [0] * n
        for i, members in enumerate(self.color_sets):
            for v in members:
                if not 0 <= v < n:
                    raise ValueError(f"color {i + 1} contains out-of-range vertex {v}")
                derived[v] |= 1 << i
        if tuple(derived) != self.mask:
            raise ValueError("mask disagrees with color sets")

    @classmethod
    def from_sets(cls, n: int, color_sets: Iterable[Iterable[int]]) -> "Objective":
        sets = tuple(frozenset(s) for s in color_sets)
        mask = [0] * n
        for i, members in enumerate(sets):
            for v in members:
                if not 0 <= v < n:
                    raise ValueError(f"color {i + 1} contains out-of-range vertex {v}")
                mask[v] |= 1 << i
        return cls(len(sets), sets, tuple(mask))

    @property
    def full_mask(self) -> int:
        return (1 << self.k) - 1


def mask_colors(mask: int) -> list[int]:
    """The 1-based colors whose bits are set in `mask`, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class Game:
    """An arena, a visit-everything objective over it, and an optional start."""

    arena: Arena
    objective: Objective
    init: int | None = None

    def __post_init__(self):
        if len(self.objective.mask) != self.arena.n:
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
