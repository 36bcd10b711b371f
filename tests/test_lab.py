"""Simulation, verification, the minimax oracle and the memory searches."""

import dataclasses
import graphlib
import hashlib
import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from genreach import (
    BudgetExceededError,
    FiniteMemoryStrategy,
    MemoryStructure,
    Owner,
    UnsupportedInputError,
    compress_adam,
    identity_memory,
    min_memory_search,
    minimax_oracle,
    parse_game,
    solve_fpt,
    verify_strategy,
)
from genreach.lab import COLOR_OBS, FULL_CLASS, _find_cycle
from helpers import (
    canonical_flower_eve,
    check_play,
    flower_adversary,
    machine_tables,
    random_game,
    random_machine,
    reference_min_memory_search,
    simulate,
    table_moves,
)

E, A = Owner.EVE, Owner.ADAM


def positional(player, game, moves=None):
    """A one-state machine from every vertex; it moves to the first
    successor at each of the player's vertices unless `moves` says
    otherwise."""
    arena = game.arena
    table = {
        (v, 0): arena.succ[v][0]
        for v in range(arena.n)
        if arena.owner[v] is player
    }
    table.update(moves or {})
    return FiniteMemoryStrategy(player, identity_memory(range(arena.n)), table_moves(table))


def test_simulate_eve_collects_all_colors(flower2):
    sigma = canonical_flower_eve(2)
    tau = positional(A, flower2)
    outcome = simulate(flower2, sigma, tau)
    assert outcome.winner is E
    assert outcome.play.masks[-1] == 3
    # The play stops at the first full mask.
    assert outcome.play.masks[-2] != 3
    check_play(flower2, outcome.play)


def test_simulate_adam_wins_on_repeat(flower2):
    # A memoryless Eve repeats her petal choice forever; the joint
    # configuration loops before the second color shows up.
    sigma = positional(E, flower2)
    tau = positional(A, flower2)
    outcome = simulate(flower2, sigma, tau)
    assert outcome.winner is A
    assert outcome.play.masks[-1] != 3
    # The play ends on a lap: its last vertex was visited before.
    assert outcome.play.vertices[-1] in outcome.play.vertices[:-1]
    check_play(flower2, outcome.play)


def test_simulate_requires_init(flower2):
    headless = dataclasses.replace(flower2, init=None)
    with pytest.raises(UnsupportedInputError, match="simulation needs a game with an init vertex"):
        simulate(headless, positional(E, headless), positional(A, headless))


def test_simulate_checks_player_order(flower2):
    with pytest.raises(UnsupportedInputError, match="Eve strategy then an Adam"):
        simulate(flower2, positional(A, flower2), positional(E, flower2))


def test_simulate_rejects_non_edge_moves(flower2):
    heart = 0
    cheat = positional(A, flower2, moves={(heart, 0): heart})  # h has no self-loop
    with pytest.raises(UnsupportedInputError, match="not an edge"):
        simulate(flower2, canonical_flower_eve(2), cheat)


def test_simulate_immediate_win_with_no_colors(demo):
    from genreach import Objective

    empty = dataclasses.replace(
        demo, objective=Objective.from_sets(demo.arena.n, [])
    )
    outcome = simulate(empty, positional(E, empty), positional(A, empty))
    assert outcome.winner is E and outcome.play.vertices == (empty.init,)


def test_verify_accepts_canonical_flower_machine(flower2):
    check = verify_strategy(flower2, canonical_flower_eve(2), [flower2.init])
    assert check.winning
    assert check.failing_vertex is None and check.counterexample is None
    assert len(check.states_used) <= 3


def test_verify_refutes_memoryless_flower_eve(flower2):
    check = verify_strategy(flower2, positional(E, flower2), [flower2.init])
    assert not check.winning
    assert check.failing_vertex == flower2.init
    # The counterexample is a legal play that closes a loop short of the
    # full mask.
    check_play(flower2, check.counterexample)
    assert check.counterexample.masks[-1] != 3
    assert check.counterexample.vertices[-1] in check.counterexample.vertices[:-1]


def test_verify_refutes_false_adam_claim(demo):
    check = verify_strategy(demo, positional(A, demo), [demo.init])
    assert not check.winning
    assert check.failing_vertex == demo.init
    check_play(demo, check.counterexample)
    assert check.counterexample.masks[-1] == 3


def test_verify_eve_counterexamples_are_lassos_on_random_machines():
    # Some of these cycles sit in a component with a shorter inner loop
    # that misses the cycle's entry; the lap must still close at the entry.
    refuted = 0
    for seed in range(1, 80, 2):
        rng = random.Random(seed)
        game = random_game(seed, n=4 + seed % 8, k=1 + seed % 3, density=0.35)
        machine = random_machine(game, E, rng.randrange(1, 4), rng)
        claimed = sorted(rng.sample(range(game.arena.n), rng.randrange(1, game.arena.n + 1)))
        check = verify_strategy(game, machine, claimed)
        if check.winning:
            continue
        refuted += 1
        play = check.counterexample
        check_play(game, play)
        assert play.vertices[0] == check.failing_vertex and check.failing_vertex in claimed
        assert play.masks[-1] != game.objective.full_mask
        assert play.vertices[-1] in play.vertices[:-1]
    assert refuted >= 30


def test_verify_random_machine_verdicts_are_pinned():
    # The digest of 400 verdicts with their counterexamples, taken before
    # verify_strategy and the memory search shared one cycle finder.
    digest = hashlib.sha256()
    for seed in range(400):
        rng = random.Random(seed)
        game = random_game(seed, n=4 + seed % 8, k=1 + seed % 3, density=0.35)
        machine = random_machine(game, E, rng.randrange(1, 4), rng)
        claimed = sorted(rng.sample(range(game.arena.n), rng.randrange(1, game.arena.n + 1)))
        check = verify_strategy(game, machine, claimed)
        play = check.counterexample
        record = (
            seed, check.winning, check.failing_vertex,
            None if play is None else play.vertices,
        )
        digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "b9e036936d542d592b40f917860ee3bdd77352d0caebf260632918432c759fca"
    )


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n
        )
    )
)
def test_find_cycle_matches_topological_sort(rows):
    cycle = _find_cycle(rows)
    try:
        tuple(graphlib.TopologicalSorter(dict(enumerate(rows))).static_order())
    except graphlib.CycleError:
        acyclic = False
    else:
        acyclic = True
    assert (cycle == []) == acyclic
    if cycle:
        assert len(set(cycle)) == len(cycle)
        for node, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            assert nxt in rows[node]


def test_verify_refuses_eve_moves_along_non_edges():
    # Eve loses from a (its only edge leads to the colorless loop at c);
    # the machine's a -> b would take the colored loop, but is no edge.
    from genreach import Arena, Game, Objective

    arena = Arena.from_edges(["a", "b", "c"], [E, E, E], [(0, 2), (1, 1), (2, 2)])
    game = Game(arena, Objective.from_sets(3, [[1]]), init=0)
    cheat = positional(E, game, moves={(0, 0): 1})
    message = r"^strategy moved along \(a, b\), which is not an edge$"
    with pytest.raises(UnsupportedInputError, match=message):
        verify_strategy(game, cheat, [0])


def test_simulate_never_contradicts_verify():
    # A machine that verifies from init wins every play against any
    # opponent machine, so simulation must agree with it.
    checked = {E: 0, A: 0}
    for seed in range(60):
        rng = random.Random(seed)
        game = random_game(seed, n=3 + seed % 6, k=1 + seed % 3, density=0.4)
        for player in (E, A):
            machine = random_machine(game, player, rng.randrange(1, 4), rng)
            if not verify_strategy(game, machine, [game.init]).winning:
                continue
            for _ in range(5):
                rival = A if player is E else E
                other = random_machine(game, rival, rng.randrange(1, 4), rng)
                sigma, tau = (machine, other) if player is E else (other, machine)
                assert simulate(game, sigma, tau).winner is player
                checked[player] += 1
    assert min(checked.values()) >= 30


def test_verify_adam_strategy_on_his_region(fig5):
    small = compress_adam(fig5)
    check = verify_strategy(fig5, small, range(fig5.arena.n))
    assert check.winning
    assert len(check.states_used) <= small.memory.states


def test_minimax_matches_regions(demo):
    assert minimax_oracle(demo) is E
    from_d = dataclasses.replace(demo, init=demo.arena.index_of("d"))
    assert minimax_oracle(from_d) is A


def test_minimax_on_fixtures(flower2, picker3, fig5):
    assert minimax_oracle(flower2) is E
    assert minimax_oracle(picker3) is A
    assert minimax_oracle(fig5) is A


def test_minimax_requires_init(flower2):
    with pytest.raises(UnsupportedInputError, match="the minimax oracle needs a game with init"):
        minimax_oracle(dataclasses.replace(flower2, init=None))


def test_minimax_node_budget(flower3):
    with pytest.raises(BudgetExceededError, match="exceeded 10 nodes"):
        minimax_oracle(flower3, budget=10)
    with pytest.raises(ValueError, match="budget must be 0 or more, not -5"):
        minimax_oracle(flower3, budget=-5)
    with pytest.raises(BudgetExceededError, match="exceeded 0 nodes"):
        minimax_oracle(flower3, budget=0)


def test_minimax_long_horizon_is_bounded_by_the_budget():
    # Horizon n * k = 12,000: the node budget alone bounds the search.
    big = random_game(3, n=4000, k=3, density=0.001)
    assert solve_fpt(big).winner(big.init) is A
    assert minimax_oracle(big) is A
    with pytest.raises(BudgetExceededError, match="exceeded 10 nodes"):
        minimax_oracle(big, budget=10)


def test_minimax_budget_bounds_wide_masks():
    # One Eve vertex on the last of 2^20 colors: a horizon of 2^20 steps,
    # each frame holding a 128 KB mask.  A frame counts one node per 64
    # bits of its mask, so the default budget stops after 122 frames.
    game = parse_game("genreach 1\ncolors 1048576\nvertex a eve 1048576\nedge a a\ninit a\n")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^minimax oracle exceeded 2000000 nodes$"):
            minimax_oracle(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_minimax_full_horizon_needs_no_recursion():
    # A 4999-vertex Eve cycle through color 1, and an unreachable color-2
    # sink: a horizon of n * k = 10000 steps, each a frame of the stack.
    from genreach import Arena, Game, Objective

    n = 5000
    cycle = [(v, (v + 1) % (n - 1)) for v in range(n - 1)]
    arena = Arena.from_edges(
        [f"v{v}" for v in range(n)], [E] * n, cycle + [(n - 1, n - 1)]
    )
    game = Game(arena, Objective.from_sets(n, [[0], [n - 1]]), init=0)
    assert minimax_oracle(game) is A


def test_min_memory_flower_color_obs(flower2):
    result = min_memory_search(flower2, E, 3, COLOR_OBS)
    assert result.states == 3
    assert result.machine_class == COLOR_OBS
    assert result.refuted == 58
    assert verify_strategy(flower2, result.strategy, [flower2.init]).winning
    # Colorless targets leave color-observing memories unchanged.
    mem = result.strategy.memory
    heart, petal1 = 0, 1
    for s in range(mem.states):
        assert mem.update(s, heart, petal1) == s


def test_min_memory_flower_full_class_bound_two(flower2):
    result = min_memory_search(flower2, E, 2, FULL_CLASS)
    assert result.strategy is None and result.states is None
    assert result.refuted == 5220


def test_min_memory_demo_eve_is_positional(demo):
    result = min_memory_search(demo, E, 2, COLOR_OBS)
    assert result.states == 1


def test_min_memory_fig4_needs_three_states(fig42):
    color_obs = min_memory_search(fig42, E, 3, COLOR_OBS)
    assert color_obs.states == 3 and color_obs.refuted == 28
    full = min_memory_search(fig42, E, 2, FULL_CLASS)
    assert full.strategy is None and full.refuted == 595


def test_min_memory_init_carries_every_color():
    game = parse_game(
        "genreach 1\ncolors 2\nvertex a eve 1 2\nvertex b adam\n"
        "edge a b\nedge b a\ninit a\n"
    )
    # Eve has won before any move; Adam is refuted once per level.
    eve = min_memory_search(game, E, 3)
    assert (eve.states, eve.refuted, eve.expansions) == (1, 0, 0)
    adam = min_memory_search(game, A, 3)
    assert adam.strategy is None
    assert (adam.refuted, adam.expansions) == (3, 0)
    # No level expands anything, so no level needs to run.
    started = time.perf_counter()
    far = min_memory_search(game, A, 10**9)
    assert time.perf_counter() - started < 0.5
    assert far.strategy is None and far.states is None
    assert (far.refuted, far.expansions) == (10**9, 0)


# The updates of a found machine, one row per state, over the arena's edges
# in sorted order.
FIG42_B3_FULL = (
    {(0, 0): 1, (0, 1): 4, (0, 2): 4, (4, 0): 6, (4, 1): 5, (4, 2): 5},
    [
        (0, 0, 0, 0, 1, 2, 0, 0, 0, 0),
        (1, 0, 1, 1, 1, 1, 1, 1, 1, 1),
        (2, 1, 2, 2, 2, 2, 2, 2, 2, 2),
    ],
)
FIG42_B3_COLOR_OBS = (
    {(0, 0): 1, (0, 1): 4, (0, 2): 4, (4, 0): 5, (4, 1): 6, (4, 2): 5},
    [
        (0, 0, 1, 2, 0, 0, 1, 2, 1, 2),
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    ],
)
FLOWER2_B3_COLOR_OBS = (
    {(1, 0): 2, (1, 1): 3, (1, 2): 2, (4, 0): 5, (4, 1): 5, (4, 2): 6},
    [
        (0, 0, 1, 2, 0, 2, 2, 1, 0, 1),
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    ],
)
FLOWER2_B3_FULL = (
    {(1, 0): 2, (1, 1): 3, (1, 2): 2, (4, 0): 5, (4, 1): 6, (4, 2): 5},
    [
        (0, 0, 0, 0, 1, 0, 0, 0, 2, 0),
        (1, 0, 1, 1, 1, 1, 1, 1, 1, 1),
        (0, 1, 2, 2, 2, 2, 2, 2, 2, 2),
    ],
)


@pytest.mark.parametrize(
    "fixture, player, bound, machine_class, states, refuted, expansions, tables",
    [
        ("flower2", E, 2, FULL_CLASS, None, 5220, 19_729, None),
        ("fig42", E, 2, FULL_CLASS, None, 595, 2_092, None),
        ("flower2", E, 3, COLOR_OBS, 3, 58, 2_418, FLOWER2_B3_COLOR_OBS),
        ("fig42", E, 3, COLOR_OBS, 3, 28, 949, FIG42_B3_COLOR_OBS),
        ("picker3", A, 2, COLOR_OBS, None, 208, 1_119, None),
        ("fig42", E, 3, FULL_CLASS, 3, 595, 28_366, FIG42_B3_FULL),
        ("flower2", E, 3, FULL_CLASS, 3, 5220, 480_882, FLOWER2_B3_FULL),
        ("flower2", A, 2, FULL_CLASS, None, 290, 1_034, None),
        ("fig5", A, 2, COLOR_OBS, None, 1_862, 7_519, None),
    ],
)
def test_min_memory_enumeration_is_pinned(
    request, fixture, player, bound, machine_class, states, refuted, expansions, tables
):
    # A change to the search order shows here as well as in the refuted
    # counts.
    game = request.getfixturevalue(fixture)
    result = min_memory_search(game, player, bound, machine_class)
    assert (result.states, result.refuted, result.expansions) == (
        states, refuted, expansions
    )
    if tables is not None:
        moves, update_rows = tables
        arena = game.arena
        edges = sorted((u, w) for u in range(arena.n) for w in arena.succ[u])
        updates = {
            (s, u, w): nxt
            for s, row in enumerate(update_rows)
            for (u, w), nxt in zip(edges, row, strict=True)
        }
        assert machine_tables(game, result.strategy) == (moves, updates)


def test_min_memory_rejects_bad_arguments(flower2):
    with pytest.raises(ValueError, match="machine class"):
        min_memory_search(flower2, E, 2, "telepathic")
    with pytest.raises(ValueError, match="bound"):
        min_memory_search(flower2, E, 0)


def test_min_memory_budget(flower2):
    with pytest.raises(BudgetExceededError, match="budget of 40 expansions"):
        min_memory_search(flower2, E, 2, FULL_CLASS, budget=40)
    with pytest.raises(ValueError, match="budget must be 0 or more, not -1"):
        min_memory_search(flower2, E, 2, budget=-1)
    # A zero budget is legal: it runs out at the first expansion.
    with pytest.raises(BudgetExceededError, match="budget of 0 expansions"):
        min_memory_search(flower2, E, 2, budget=0)


@pytest.mark.parametrize(
    "fixture, player, machine_class, expansions",
    [
        ("picker3", A, COLOR_OBS, 1_119),
        ("flower2", E, FULL_CLASS, 19_729),
        ("fig5", A, COLOR_OBS, 7_519),
    ],
)
def test_min_memory_budget_is_exact_across_state_counts(
    request, fixture, player, machine_class, expansions
):
    # Each search runs one and then two states, so the budget is checked
    # against the expansions of every state count together.  fig5 counts
    # 364 of its expansions without redoing them, so its budget is also
    # checked across those.
    game = request.getfixturevalue(fixture)
    with pytest.raises(BudgetExceededError):
        min_memory_search(game, player, 2, machine_class, budget=expansions - 1)
    result = min_memory_search(game, player, 2, machine_class, budget=expansions)
    assert result.expansions == expansions


@pytest.mark.parametrize("machine_class", [COLOR_OBS, FULL_CLASS])
def test_min_memory_search_allocates_nothing_per_vertex_and_state(machine_class):
    # Adam's a -> b -> b completes both colors at the first expansion of
    # every state count; 100,000 unreachable vertices make any table over
    # vertices times states, or times masks, show in the peak.
    from genreach import Arena, Game, Objective

    n = 100_002
    edges = [(0, 1)] + [(v, v) for v in range(1, n)]
    arena = Arena.from_edges([f"v{v}" for v in range(n)], [A] * n, edges)
    game = Game(arena, Objective.from_sets(n, [[0], [1]]), init=0)
    tracemalloc.start()
    try:
        result = min_memory_search(game, A, 50, machine_class)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.strategy is None
    assert result.refuted == result.expansions == 50
    assert peak < 4 << 20
    # Nor any work per vertex and state count: 1,000 counts take
    # milliseconds, where a pass over the vertices per count takes seconds.
    start = time.perf_counter()
    result = min_memory_search(game, A, 1000, machine_class)
    elapsed = time.perf_counter() - start
    assert result.refuted == result.expansions == 1000
    assert elapsed < 1.0


def test_min_memory_search_seldom_searches_for_cycles(flower2, monkeypatch):
    # A self-loop or a 2-cycle is spotted as its row is added, so fewer
    # closes find no cycle standing and need a search; a search that
    # looked for cycles only at closes made 36,125 searches here.
    from genreach import lab

    calls = 0
    find_cycle = lab._find_cycle

    def counted(rows):
        nonlocal calls
        calls += 1
        return find_cycle(rows)

    monkeypatch.setattr(lab, "_find_cycle", counted)
    result = min_memory_search(flower2, E, 3, FULL_CLASS)
    assert (result.states, result.refuted) == (3, 5220)
    assert calls < 12_000


def test_min_memory_refuted_machines_cost_nothing_per_vertex_and_state(flower2):
    # flower2 plus 10,000 unreachable Eve vertices, each a choice between
    # a self-loop and the next.  A machine that held a move for every such
    # vertex and state would cost seconds over the 390 losers the hook
    # receives; the hook keeps none, so only building them costs.
    from genreach import Arena, Game, Objective

    arena, pad = flower2.arena, 10_000
    n = arena.n + pad
    edges = list(arena.edges)
    for v in range(arena.n, n):
        edges += [(v, v), (v, v + 1 if v + 1 < n else arena.n)]
    padded = Game(
        Arena.from_edges(
            arena.names + tuple(f"p{i}" for i in range(pad)),
            arena.owner + (E,) * pad,
            edges,
        ),
        Objective.from_sets(n, flower2.objective.color_sets),
        init=flower2.init,
    )
    calls = 0

    def count(machine):
        nonlocal calls
        calls += 1

    start = time.perf_counter()
    result = min_memory_search(padded, E, 3, COLOR_OBS, on_refuted=count)
    elapsed = time.perf_counter() - start
    assert (result.states, result.refuted, calls) == (3, 58, 390)
    assert elapsed < 1.0


def test_min_memory_on_refuted_hook(flower2):
    seen = []
    result = min_memory_search(
        flower2, E, 1, COLOR_OBS, on_refuted=seen.append
    )
    assert result.strategy is None
    assert len(seen) == result.refuted > 0
    for machine in seen:
        assert not verify_strategy(flower2, machine, [flower2.init]).winning


@pytest.mark.parametrize(
    "fixture, player, bound, machine_class",
    [
        ("picker3", A, 2, COLOR_OBS),
        ("picker3", A, 3, COLOR_OBS),
        ("flower2", E, 2, FULL_CLASS),
        ("flower2", E, 2, COLOR_OBS),
        ("fig42", E, 3, COLOR_OBS),
        ("fig42", E, 3, FULL_CLASS),
        ("flower2", A, 2, FULL_CLASS),
        ("flower2", A, 3, FULL_CLASS),
        ("fig5", A, 2, COLOR_OBS),
    ],
)
def test_min_memory_matches_restarting_reference(
    request, fixture, player, bound, machine_class
):
    # The incremental search must enumerate the same candidates in the
    # same order as restarting the expansion from init at every decision
    # point, while expanding no more configurations.
    game = request.getfixturevalue(fixture)
    losers, ref_losers = [], []
    result = min_memory_search(
        game, player, bound, machine_class, on_refuted=losers.append
    )
    ref_machine, ref_states, ref_refuted, ref_expansions = (
        reference_min_memory_search(
            game, player, bound, machine_class, on_refuted=ref_losers.append
        )
    )
    assert result.refuted == ref_refuted
    assert result.states == ref_states
    assert [machine_tables(game, m) for m in losers] == [
        machine_tables(game, m) for m in ref_losers
    ]
    if ref_machine is None:
        assert result.strategy is None
    else:
        assert machine_tables(game, result.strategy) == machine_tables(
            game, ref_machine
        )
    assert result.expansions <= ref_expansions


def test_min_memory_matches_restarting_reference_on_random_games():
    # 200 small random games, both players, both classes, bounds 1 to 3:
    # the same counts, machines and Eve losers as the restarting search,
    # and a budget one short of the expansions runs out.  The few searches
    # over 20,000 expansions are left to the pinned cases above.
    compared = 0
    for seed in range(200):
        rng = random.Random(seed)
        game = random_game(seed, n=rng.randint(3, 8), k=rng.randint(1, 3))
        player = (E, A)[seed % 2]
        machine_class = (COLOR_OBS, FULL_CLASS)[seed // 2 % 2]
        bound = 1 + seed // 4 % 3
        losers, ref_losers = [], []
        try:
            result = min_memory_search(
                game, player, bound, machine_class, budget=20_000,
                on_refuted=losers.append,
            )
        except BudgetExceededError:
            continue
        ref_machine, ref_states, ref_refuted, ref_expansions = (
            reference_min_memory_search(
                game, player, bound, machine_class, on_refuted=ref_losers.append
            )
        )
        assert (result.states, result.refuted) == (ref_states, ref_refuted), seed
        assert result.expansions <= ref_expansions, seed
        assert [machine_tables(game, m) for m in losers] == [
            machine_tables(game, m) for m in ref_losers
        ], seed
        if ref_machine is None:
            assert result.strategy is None, seed
        else:
            assert machine_tables(game, result.strategy) == machine_tables(
                game, ref_machine
            ), seed
        if result.expansions:
            with pytest.raises(BudgetExceededError):
                min_memory_search(
                    game, player, bound, machine_class,
                    budget=result.expansions - 1,
                )
        compared += 1
    assert compared >= 190


def test_flower_adversary_beats_memoryless_eve(flower2):
    refutation = flower_adversary(2, positional(E, flower2))
    assert refutation.outcome.winner is A
    assert 0 <= refutation.x < 3
    assert refutation.x not in refutation.stopping_sets
    assert refutation.petals


def test_flower_adversary_rejects_large_machines():
    with pytest.raises(UnsupportedInputError, match="below 3"):
        flower_adversary(2, canonical_flower_eve(2))


def test_flower_adversary_refutes_random_machines():
    from genreach import GenParams, generate

    game = generate(GenParams("flower", k=3))
    rng = random.Random(5)
    for _ in range(50):
        machine = random_machine(game, E, rng.randrange(1, 7), rng)
        refutation = flower_adversary(3, machine)
        assert refutation.outcome.winner is A
        assert refutation.outcome.play.masks[-1] != 7
