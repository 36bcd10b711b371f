"""Quantified boolean formulas and their translation into games.

A prenex CNF formula becomes a game in which the quantifier owners pick
literal values in prefix order and every clause is a color: Eve wins
from the first choice vertex exactly when the formula is true.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import UnsupportedInputError
from .fileformat import _read_dimacs
from .model import Arena, Game, Objective, Owner

QUANT_EXISTS = "e"
QUANT_FORALL = "a"


@dataclass(frozen=True)
class QBFFormula:
    """Prenex CNF: a quantifier per variable, then clauses over literals.

    Literals use the DIMACS convention (variable v, negation -v).  The
    prefix quantifies every variable from 1 to num_vars exactly once.
    """

    num_vars: int
    prefix: tuple[tuple[str, int], ...]
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        seen = set()
        for quant, v in self.prefix:
            if quant not in (QUANT_EXISTS, QUANT_FORALL):
                raise ValueError(f"unknown quantifier '{quant}'")
            if not 1 <= v <= self.num_vars or v in seen:
                raise ValueError(f"variable {v} must be quantified exactly once")
            seen.add(v)
        if len(seen) != self.num_vars:
            raise ValueError("prefix must quantify every variable")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


def parse_qdimacs(text: str) -> QBFFormula:
    """Parse QDIMACS; free variables become innermost existentials."""
    num_vars, blocks, clauses, _ = _read_dimacs(text)
    prefix = [(quant, v) for _, quant, block in blocks for v in block]
    quantified = {v for _, v in prefix}
    free = [v for v in range(1, num_vars + 1) if v not in quantified]
    if free:
        warnings.warn(
            f"variables {free} are unquantified; treated as innermost existentials",
            stacklevel=2,
        )
        prefix.extend((QUANT_EXISTS, v) for v in free)
    return QBFFormula(num_vars, tuple(prefix), tuple(clauses))


def qbf_to_game(formula: QBFFormula) -> Game:
    """Build the game whose winner from init decides the formula.

    Per prefix entry the owning player moves from a choice vertex to one
    of two literal vertices, then on to the next choice; a self-looping
    sink ends the pass.  Each clause is a color spread over its literal
    vertices, so a play fulfills the objective iff the chosen valuation
    satisfies every clause.  The empty formula is the lone sink with
    no colors, which Eve wins.
    """
    names: list[str] = []
    owners: list[Owner] = []
    edges: list[tuple[int, int]] = []
    lit_vertex: dict[int, int] = {}
    for quant, v in formula.prefix:
        base = len(names)
        names += [f"v{v}", f"x{v}", f"nx{v}"]
        owner = Owner.EVE if quant == QUANT_EXISTS else Owner.ADAM
        owners += [owner, Owner.EVE, Owner.EVE]
        lit_vertex[v] = base + 1
        lit_vertex[-v] = base + 2
        edges += [(base, base + 1), (base, base + 2)]
    sink = len(names)
    names.append("s")
    owners.append(Owner.EVE)
    edges.append((sink, sink))
    for pos in range(len(formula.prefix)):
        nxt = 3 * (pos + 1) if pos + 1 < len(formula.prefix) else sink
        edges += [(3 * pos + 1, nxt), (3 * pos + 2, nxt)]
    arena = Arena.from_edges(names, owners, edges)
    color_sets = [
        frozenset(lit_vertex[lit] for lit in clause) for clause in formula.clauses
    ]
    objective = Objective.from_sets(arena.n, color_sets)
    return Game(arena, objective, init=0)


def eval_qbf_bruteforce(formula: QBFFormula, cap: int = 20) -> bool:
    """Decide a formula by quantifier recursion; exponential, capped."""
    if formula.num_vars > cap:
        raise UnsupportedInputError(
            f"{formula.num_vars} variables exceed the brute-force cap of {cap}"
        )
    values = [False] * (formula.num_vars + 1)

    def satisfied() -> bool:
        return all(
            any(values[abs(lit)] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        )

    def descend(pos: int) -> bool:
        if pos == len(formula.prefix):
            return satisfied()
        quant, v = formula.prefix[pos]
        if quant == QUANT_EXISTS:
            for value in (False, True):
                values[v] = value
                if descend(pos + 1):
                    return True
            return False
        for value in (False, True):
            values[v] = value
            if not descend(pos + 1):
                return False
        return True

    return descend(0)
