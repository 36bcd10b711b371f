"""Line-oriented game text format and Graphviz export.

Format, version 1::

    genreach 1
    colors <k>
    vertex <name> <eve|adam> [<color> ...]
    edge <from> <to>
    init <name>            # optional

Tokens are whitespace separated; `#` starts a comment.  Colors are 1-based,
at most `MAX_COLORS` of them.  The `colors` line must precede vertex
declarations; edges may reference vertices declared later.  Parsing rejects
anything `validate_arena` would flag, so a parsed game is ready for any solver.

`_read_dimacs` at the bottom is the one reader of DIMACS CNF and QDIMACS
text; `qbf.parse_qdimacs` and `subclasses.parse_dimacs_cnf2` build their
formulas from what it returns.
"""

from __future__ import annotations

from .errors import GameParseError, UnsupportedInputError
from .model import Arena, Game, Objective, Owner, mask_colors, validate_arena
from .strategies import strategy_to_json

FORMAT_NAME = "genreach"
FORMAT_VERSION = "1"
# The largest color count; each declared color costs a list slot in memory.
MAX_COLORS = 1 << 20
# The largest DIMACS variable count; `two_sat_solve`, `parse_qdimacs` and
# `qbf_to_game` each allocate for every declared variable, used or not.
MAX_VARIABLES = 1 << 20

_OWNERS = {"eve": Owner.EVE, "adam": Owner.ADAM}


def parse_game(text: str) -> Game:
    header_seen = False
    k: int | None = None
    names: list[str] = []
    index: dict[str, int] = {}
    owners: list[Owner] = []
    carriers: dict[int, set[int]] = {}  # color -> the vertices carrying it
    vertex_lines: list[int] = []
    edge_refs: list[tuple[str, str, int]] = []
    init_ref: tuple[str, int] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if not header_seen:
            if tokens != [FORMAT_NAME, FORMAT_VERSION]:
                raise GameParseError(
                    f"expected header '{FORMAT_NAME} {FORMAT_VERSION}'", lineno
                )
            header_seen = True
            continue
        keyword = tokens[0]
        if keyword == "colors":
            # A vertex needs colors first, so this also catches colors
            # after a vertex.
            if k is not None:
                raise GameParseError("duplicate colors declaration", lineno)
            if len(tokens) != 2:
                raise GameParseError("colors takes exactly one count", lineno)
            k = _parse_int(tokens[1], lineno)
            if k < 0:
                raise GameParseError("color count must be non-negative", lineno)
            if k > MAX_COLORS:
                raise GameParseError(f"color count {k} exceeds the limit {MAX_COLORS}", lineno)
        elif keyword == "vertex":
            if k is None:
                raise GameParseError("colors must be declared before vertices", lineno)
            if len(tokens) < 3:
                raise GameParseError("vertex needs a name and an owner", lineno)
            name = tokens[1]
            if name in index:
                raise GameParseError(f"duplicate vertex '{name}'", lineno)
            if tokens[2] not in _OWNERS:
                raise GameParseError(
                    f"owner must be 'eve' or 'adam', got '{tokens[2]}'", lineno
                )
            v = len(names)
            for tok in tokens[3:]:
                c = _parse_int(tok, lineno)
                if not 1 <= c <= k:
                    raise GameParseError(f"color {c} out of range 1..{k}", lineno)
                members = carriers.setdefault(c, set())
                if v in members:
                    raise GameParseError(f"repeated color {c}", lineno)
                members.add(v)
            index[name] = v
            names.append(name)
            owners.append(_OWNERS[tokens[2]])
            vertex_lines.append(lineno)
        elif keyword == "edge":
            if len(tokens) != 3:
                raise GameParseError("edge takes exactly two vertex names", lineno)
            edge_refs.append((tokens[1], tokens[2], lineno))
        elif keyword == "init":
            if len(tokens) != 2:
                raise GameParseError("init takes exactly one vertex name", lineno)
            if init_ref is not None:
                raise GameParseError("duplicate init declaration", lineno)
            init_ref = (tokens[1], lineno)
        else:
            raise GameParseError(f"unknown directive '{keyword}'", lineno)

    if not header_seen:
        raise GameParseError(f"missing '{FORMAT_NAME} {FORMAT_VERSION}' header")
    if k is None:
        raise GameParseError("missing colors declaration")

    try:
        edges = [(index[src], index[dst]) for src, dst, _ in edge_refs]
    except KeyError as exc:
        # The first edge line naming it is the one the comprehension failed on.
        name = exc.args[0]
        lineno = next(line for src, dst, line in edge_refs if name in (src, dst))
        raise GameParseError(f"unknown vertex name '{name}'", lineno) from None

    arena = Arena.from_edges(names, owners, edges)
    violations = validate_arena(arena)
    if violations:
        # `validate_arena` is the check; only now is a line looked up: the
        # file's first repeated edge, else the first dead end's declaration,
        # else none, since the file declares no vertices.
        first_line: dict[tuple[int, int], int] = {}
        for edge, (src, dst, lineno) in zip(edges, edge_refs):
            if first_line.setdefault(edge, lineno) != lineno:
                raise GameParseError(f"duplicate edge '{src}' -> '{dst}'", lineno)
        v = next((v for v, targets in enumerate(arena.succ) if not targets), None)
        raise GameParseError(violations[0], None if v is None else vertex_lines[v])

    # Colors no vertex carries share one empty set, and the list of k is
    # made by one repeat, so a declared count costs a slot per color and
    # no Python step.
    color_sets = [frozenset()] * k
    for c, members in carriers.items():
        color_sets[c - 1] = frozenset(members)
    objective = Objective(len(names), tuple(color_sets))

    init = None
    if init_ref is not None:
        name, lineno = init_ref
        if name not in index:
            raise GameParseError(f"unknown vertex name '{name}'", lineno)
        init = index[name]
    return Game(arena, objective, init)


def serialize_game(game: Game) -> str:
    """Canonical text for a game: vertices in index order, edges sorted."""
    arena = game.arena
    for name in arena.names:
        if not name or "#" in name or name.split() != [name]:
            raise UnsupportedInputError(f"vertex name {name!r} is not serializable")
    if game.k > MAX_COLORS:
        raise UnsupportedInputError(f"{game.k} colors exceed the format's limit {MAX_COLORS}")
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"colors {game.k}"]
    for v, name in enumerate(arena.names):
        parts = ["vertex", name, arena.owner[v].value]
        parts.extend(str(c) for c in mask_colors(game.colors(v)))
        lines.append(" ".join(parts))
    for u, v in sorted(arena.edges):
        lines.append(f"edge {arena.names[u]} {arena.names[v]}")
    if game.init is not None:
        lines.append(f"init {arena.names[game.init]}")
    return "\n".join(lines) + "\n"


def export_dot(game: Game, result=None) -> str:
    """Graphviz document: circles for Eve, boxes for Adam, colors in labels.

    `result` may be a SolveResult; its regions become fill colors, and the
    moves `strategy_to_json` writes for its strategies are drawn bold.
    """
    arena = game.arena
    lines = ["digraph genreach {", "  rankdir=LR;"]
    eve_region = getattr(result, "eve_region", frozenset())
    adam_region = getattr(result, "adam_region", frozenset())
    for v, name in enumerate(arena.names):
        label = name
        colors = mask_colors(game.colors(v))
        if colors:
            label += " [" + ",".join(str(c) for c in colors) + "]"
        attrs = [
            f'label="{_dot_escape(label)}"',
            "shape=circle" if arena.is_eve(v) else "shape=box",
        ]
        if v in eve_region:
            attrs.append('style=filled fillcolor="#cfe2ff"')
        elif v in adam_region:
            attrs.append('style=filled fillcolor="#ffd7cf"')
        if v == game.init:
            attrs.append("peripheries=2")
        lines.append(f'  "{_dot_escape(name)}" [{", ".join(attrs)}];')
    marked = set()
    for strategy in (
        getattr(result, "eve_strategy", None),
        getattr(result, "adam_strategy", None),
    ):
        if strategy is not None:
            for row in strategy_to_json(arena, strategy)["moves"]:
                marked.add((arena.index_of(row["vertex"]), arena.index_of(row["successor"])))
    for u, v in sorted(arena.edges):
        attrs = " [penwidth=2]" if (u, v) in marked else ""
        lines.append(
            f'  "{_dot_escape(arena.names[u])}" -> "{_dot_escape(arena.names[v])}"{attrs};'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    # An optional '-' then ASCII digits: int() also takes '+1' and '1_0'.
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise GameParseError(f"expected an integer, got '{token}'", lineno)
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise GameParseError(f"integer of {len(token)} digits is too long", lineno) from None


def _read_dimacs(
    text: str,
) -> tuple[int, list[tuple[int, str, list[int]]], list[tuple[int, ...]], list[int]]:
    """Read QDIMACS, of which DIMACS CNF is the case with no quantifier lines.

    Lines starting with `c` are comments and a line starting with `%` ends
    the input.  One `p cnf <vars> <clauses>` line comes first, then `e`/`a`
    quantifier lines ended by 0, then clauses ended by 0, which may span
    lines; the clause count must match the problem line, and the variable
    count is at most `MAX_VARIABLES`.  Returns the variable count, the
    quantifier blocks as (line, quantifier, variables), the clauses, and the
    line each clause ends on.
    """
    num_vars: int | None = None
    declared = 0
    blocks: list[tuple[int, str, list[int]]] = []
    quantified: set[int] = set()
    clauses: list[tuple[int, ...]] = []
    ends: list[int] = []
    pending: list[int] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "%":
            break
        if tokens[0] == "p":
            if num_vars is not None:
                raise GameParseError("duplicate problem line", lineno)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise GameParseError(
                    "problem line must be 'p cnf <vars> <clauses>'", lineno
                )
            num_vars = _parse_int(tokens[2], lineno)
            declared = _parse_int(tokens[3], lineno)
            if num_vars < 0 or declared < 0:
                raise GameParseError("negative count in problem line", lineno)
            if num_vars > MAX_VARIABLES:
                raise GameParseError(
                    f"variable count {num_vars} exceeds the limit {MAX_VARIABLES}", lineno
                )
            continue
        quantifier = tokens[0] in ("e", "a")
        if num_vars is None:
            what = "directive" if quantifier else "clause"
            raise GameParseError(f"{what} before problem line", lineno)
        if quantifier:
            if clauses or pending:
                raise GameParseError("quantifier block after clauses", lineno)
            if tokens[-1] != "0":
                raise GameParseError("quantifier line must end with 0", lineno)
            block = []
            for token in tokens[1:-1]:
                v = _parse_int(token, lineno)
                if not 1 <= v <= num_vars:
                    raise GameParseError(
                        f"variable {v} out of range, {num_vars} declared", lineno
                    )
                if v in quantified:
                    raise GameParseError(f"variable {v} quantified twice", lineno)
                quantified.add(v)
                block.append(v)
            blocks.append((lineno, tokens[0], block))
            continue
        for token in tokens:
            lit = _parse_int(token, lineno)
            if lit == 0:
                if not pending:
                    raise GameParseError("empty clause", lineno)
                clauses.append(tuple(pending))
                ends.append(lineno)
                pending.clear()
            elif abs(lit) > num_vars:
                raise GameParseError(
                    f"literal {lit} out of range, {num_vars} variables declared",
                    lineno,
                )
            else:
                pending.append(lit)
    if num_vars is None:
        raise GameParseError("missing problem line", max(lineno, 1))
    if pending:
        raise GameParseError("unterminated clause at end of input", lineno)
    if len(clauses) != declared:
        raise GameParseError(
            f"declared {declared} clauses, found {len(clauses)}", lineno
        )
    return num_vars, blocks, clauses, ends


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
