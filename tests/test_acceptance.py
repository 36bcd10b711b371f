"""Acceptance suite: one test per shipped guarantee.

Each test is an end-to-end check at desk scale, written against public
API only.  Expected counts that appear as literals (refuted machines,
state counts) were computed once with the same public calls and frozen
here so regressions are loud.  The whole module runs in a few minutes;
the two slow tests say so in their docstrings.
"""

import gc
import itertools
import math
import random
import time

from genreach import (
    COLOR_OBS,
    FULL_CLASS,
    Arena,
    GenParams,
    Game,
    Objective,
    Owner,
    TwoSatFormula,
    compress_adam,
    eval_qbf_bruteforce,
    flower_adversary,
    generate,
    min_memory_search,
    minimax_oracle,
    parse_game,
    parse_qdimacs,
    qbf_to_game,
    solve_fpt,
    solve_oneplayer_size2,
    solve_opponent_player,
    solve_singleton,
    two_sat_solve,
    verify_strategy,
)

from conftest import DEMO_TEXT, QBF1_TEXT
from helpers import random_game, random_machine

E, A = Owner.EVE, Owner.ADAM


def fixture_games() -> list[tuple[str, Game]]:
    """The named instances every cross-check runs against."""
    return [
        ("demo", parse_game(DEMO_TEXT)),
        ("qbf1", qbf_to_game(parse_qdimacs(QBF1_TEXT))),
        ("flower1", generate(GenParams("flower", k=1))),
        ("flower2", generate(GenParams("flower", k=2))),
        ("flower3", generate(GenParams("flower", k=3))),
        ("picker3", generate(GenParams("picker", k=3))),
        ("fig4_2", generate(GenParams("fig4", k=2))),
        ("fig4_4", generate(GenParams("fig4", k=4))),
        ("fig5", generate(GenParams("fig5"))),
    ]


def assert_partition(game: Game, eve, adam) -> None:
    everyone = frozenset(range(game.arena.n))
    assert eve | adam == everyone
    assert not (eve & adam)


def tiny_games():
    """Every game on <= 4 vertices built from small per-vertex successor
    menus, crossed with all owner assignments and all 2-color labelings.

    The menus keep each vertex at one or two successors but still produce
    self-loops, cycles through everyone, and genuine choices, which is
    where region computations usually go wrong.
    """
    names = ("g0", "g1", "g2", "g3")
    for n in range(1, 5):
        menus = []
        for v in range(n):
            nxt, nxt2 = (v + 1) % n, (v + 2) % n
            if n == 1:
                options = [(v,)]
            elif n == 2:
                options = [(nxt,), (v,), tuple(sorted((v, nxt)))]
            elif n == 3:
                options = [
                    (nxt,),
                    (v,),
                    tuple(sorted((nxt, nxt2))),
                    tuple(sorted((v, nxt))),
                ]
            else:
                options = [(nxt,), tuple(sorted((v, nxt)))]
            menus.append(options)
        for succ in itertools.product(*menus):
            for bits in range(1 << n):
                owner = tuple(E if bits >> v & 1 else A for v in range(n))
                arena = Arena(names[:n], owner, succ)
                for masks in itertools.product(range(4), repeat=n):
                    sets = (
                        frozenset(v for v in range(n) if masks[v] & 1),
                        frozenset(v for v in range(n) if masks[v] & 2),
                    )
                    yield Game(arena, Objective(2, sets, masks))


def test_criterion_01_regions_partition_every_tiny_and_random_game():
    """solve_fpt splits the vertices into two disjoint covering regions on
    an exhaustive family of tiny games and on 500 random ones, and sampled
    strategies certify their side.  Budgeted at under a minute."""
    started = time.perf_counter()
    count = 0
    for game in tiny_games():
        res = solve_fpt(game)
        assert_partition(game, res.eve_region, res.adam_region)
        count += 1
        if count % 9 == 0:
            if res.eve_region:
                assert verify_strategy(game, res.eve_strategy, res.eve_region).winning
            if res.adam_region:
                assert verify_strategy(game, res.adam_strategy, res.adam_region).winning
    assert count == 98888  # 8 + 576 + 32768 + 65536 menu/owner/color combos

    for seed in range(500):
        rng = random.Random(9000 + seed)
        k = rng.randrange(1, 5)
        game = random_game(
            seed,
            n=rng.randrange(2, 31),
            k=k,
            density=rng.uniform(0.08, 0.5),
            eve_ratio=rng.random(),
            color_size=(1, rng.randrange(1, 4)),
        )
        res = solve_fpt(game)
        assert_partition(game, res.eve_region, res.adam_region)
        if res.eve_region:
            assert verify_strategy(game, res.eve_strategy, res.eve_region).winning
        if res.adam_region:
            assert verify_strategy(game, res.adam_strategy, res.adam_region).winning
    assert time.perf_counter() - started < 60.0


def test_criterion_02_fpt_engine_agrees_with_minimax_oracle():
    """The region solver and the game-tree oracle name the same winner
    from init on every named fixture and 200 random games with n*k <= 40."""
    for name, game in fixture_games():
        res = solve_fpt(game)
        fpt_winner = E if game.init in res.eve_region else A
        assert fpt_winner is minimax_oracle(game), name

    for seed in range(200):
        rng = random.Random(17_000 + seed)
        k = rng.randrange(1, 5)
        game = random_game(
            seed,
            n=rng.randrange(2, 40 // k + 1),
            k=k,
            density=rng.uniform(0.1, 0.6),
            eve_ratio=rng.random(),
            color_size=(1, 2),
        )
        res = solve_fpt(game)
        fpt_winner = E if game.init in res.eve_region else A
        assert fpt_winner is minimax_oracle(game), seed


def random_qdimacs(rng: random.Random) -> str:
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


def test_criterion_03_qbf_game_route_matches_brute_force():
    """Deciding a quantified formula by solving its game agrees with
    direct truth-table recursion on 300 random formulas, and the bundled
    example is true with Eve winning its game."""
    qbf1 = parse_qdimacs(QBF1_TEXT)
    assert eval_qbf_bruteforce(qbf1)
    game1 = qbf_to_game(qbf1)
    assert game1.init in solve_fpt(game1).eve_region

    for seed in range(300):
        formula = parse_qdimacs(random_qdimacs(random.Random(23_000 + seed)))
        game = qbf_to_game(formula)
        eve_wins = game.init in solve_fpt(game).eve_region
        assert eve_wins == eval_qbf_bruteforce(formula), seed


def solvable_random_games(count: int, base_seed: int, want_adam: bool):
    """Random games filtered so the side under test wins somewhere."""
    games = []
    seed = 0
    while len(games) < count:
        rng = random.Random(base_seed + seed)
        game = random_game(
            seed,
            n=rng.randrange(3, 13),
            k=rng.randrange(1, 5),
            density=rng.uniform(0.15, 0.5),
            eve_ratio=rng.random(),
            color_size=(1, 2),
        )
        seed += 1
        res = solve_fpt(game)
        region = res.adam_region if want_adam else res.eve_region
        if region:
            games.append((game, res))
    return games


def test_criterion_04_eve_strategy_memory_within_exponential_bound():
    """Eve's synthesized strategy never uses more than 2^k - 1 memory
    states and wins from her whole region, on fixtures and 200 random
    solvable games."""
    suites = [(g, solve_fpt(g)) for _, g in fixture_games()]
    suites += solvable_random_games(200, 31_000, want_adam=False)
    for game, res in suites:
        if not res.eve_region:
            continue
        bound = max(1, (1 << game.k) - 1)
        assert res.eve_strategy.memory.states <= bound
        report = verify_strategy(game, res.eve_strategy, res.eve_region)
        assert report.winning
        assert len(report.states_used) <= bound


def test_criterion_05_adam_strategy_compresses_to_antichain_bound():
    """The compressed Adam strategy stays within C(k, floor(k/2)) states
    and wins from his whole region, on fixtures and 200 random games where
    he wins somewhere."""
    suites = [(g, solve_fpt(g)) for _, g in fixture_games()]
    suites += solvable_random_games(200, 47_000, want_adam=True)
    for game, res in suites:
        if not res.adam_region:
            continue
        compressed = compress_adam(game)
        assert compressed.memory.states <= math.comb(game.k, game.k // 2)
        assert verify_strategy(game, compressed, res.adam_region).winning


def test_criterion_06_flower_forces_exponential_eve_memory():
    """On the 2-petal flower no 2-state machine wins but a 3-state one
    does, and the constructive adversary independently refutes every
    sub-threshold machine (all of them for k=2, 1000 random for k=3).
    Budgeted at under five minutes; usually finishes in seconds."""
    started = time.perf_counter()
    flower2 = generate(GenParams("flower", k=2))

    losers = []
    none2 = min_memory_search(
        flower2, E, 2, machine_class=FULL_CLASS, on_refuted=losers.append
    )
    assert none2.strategy is None
    assert none2.refuted == 5220
    assert len(losers) == none2.refuted
    for machine in losers:
        refutation = flower_adversary(2, machine)
        assert refutation.outcome.winner is A
        assert refutation.outcome.play.masks[-1] != 3

    found3 = min_memory_search(flower2, E, 3, machine_class=FULL_CLASS)
    assert found3.states == 3 == (1 << 2) - 1
    assert verify_strategy(flower2, found3.strategy, [flower2.init]).winning

    flower3 = generate(GenParams("flower", k=3))
    rng = random.Random(61_000)
    for trial in range(1000):
        machine = random_machine(flower3, E, rng.randrange(1, 7), rng)
        refutation = flower_adversary(3, machine)
        assert refutation.outcome.winner is A, trial
        assert refutation.outcome.play.masks[-1] != 7
    assert time.perf_counter() - started < 300.0


def test_criterion_07_adam_lower_bounds_in_color_observing_class():
    """Exhaustive color-observing search proves Adam needs 4 states on the
    four-color rail game and 3 on the 3-color picker, and each result
    reports which machine class it searched.  The 4-state search is the
    slowest test of this suite (about 25 s on 2 vCPU)."""
    fig5 = generate(GenParams("fig5"))
    none3 = min_memory_search(fig5, A, 3, machine_class=COLOR_OBS, budget=200_000_000)
    assert none3.strategy is None
    assert none3.refuted == 286938

    found4 = min_memory_search(fig5, A, 4, machine_class=COLOR_OBS, budget=200_000_000)
    assert found4.states == 4
    assert verify_strategy(fig5, found4.strategy, [fig5.init]).winning

    picker3 = generate(GenParams("picker", k=3))
    none2 = min_memory_search(picker3, A, 2, machine_class=COLOR_OBS)
    assert none2.strategy is None
    assert none2.refuted == 208

    found3 = min_memory_search(picker3, A, 3, machine_class=COLOR_OBS)
    assert found3.states == 3 == math.comb(3, 1)
    assert verify_strategy(picker3, found3.strategy, [picker3.init]).winning

    for result in (none3, found4, none2, found3):
        assert result.machine_class == COLOR_OBS == "color-obs"


def test_criterion_08_subclass_solvers_agree_with_fpt_engine():
    """The three specialized solvers compute the same regions as the
    general engine across their whole input classes."""
    for seed in range(200):
        game = random_game(seed, n=5 + seed % 6, k=1 + seed % 3, color_size=(1, 1))
        special, general = solve_singleton(game), solve_fpt(game)
        assert special.eve_region == general.eve_region, seed
        assert special.adam_region == general.adam_region, seed

    for seed in range(300):
        game = random_game(
            seed, n=4 + seed % 9, k=1 + seed % 4, eve_ratio=1.0, color_size=(1, 2)
        )
        special, general = solve_oneplayer_size2(game), solve_fpt(game)
        assert special.eve_region == general.eve_region, seed
        assert special.adam_region == general.adam_region, seed

    for seed in range(200):
        game = random_game(
            seed, n=4 + seed % 9, k=1 + seed % 4, eve_ratio=0.0, color_size=(1, 2)
        )
        special, general = solve_opponent_player(game), solve_fpt(game)
        assert special.eve_region == general.eve_region, seed
        assert special.adam_region == general.adam_region, seed


def brute_force_sat(num_vars: int, clauses) -> bool:
    for bits in range(1 << num_vars):
        if all(
            any(bits >> (abs(lit) - 1) & 1 == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def test_criterion_09_two_sat_matches_truth_tables():
    """The implication-graph solver agrees with truth-table enumeration on
    500 random width-<=2 formulas, and every produced assignment satisfies
    its formula."""
    for seed in range(500):
        rng = random.Random(71_000 + seed)
        num_vars = rng.randrange(1, 13)
        clauses = []
        for _ in range(rng.randrange(0, 15)):
            width = rng.randrange(1, 3)
            clauses.append(
                tuple(
                    rng.choice((-1, 1)) * rng.randrange(1, num_vars + 1)
                    for _ in range(width)
                )
            )
        formula = TwoSatFormula.from_clauses(num_vars, clauses)
        result = two_sat_solve(formula)
        assert result.satisfiable == brute_force_sat(num_vars, clauses), seed
        if result.satisfiable:
            for clause in clauses:
                assert any(
                    result.assignment[abs(lit) - 1] == (lit > 0) for lit in clause
                ), seed


def timed_solve(game: Game):
    """Best of two garbage-collection-quiet runs."""
    best, result = math.inf, None
    for _ in range(2):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = solve_fpt(game)
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best, result


def test_criterion_10_fpt_solver_scales_linearly_in_game_size():
    """A 2000-vertex, 10-color random game solves in single-digit seconds
    with product size at most n * 2^k, and doubling the game roughly
    doubles the time (factor <= 2.5 allowed for noise)."""
    base = random_game(11, n=2000, k=10, density=4 / 2000, color_size=(20, 100))
    assert 6000 <= base.arena.m <= 10000
    time_base, res_base = timed_solve(base)
    assert time_base < 10.0
    assert res_base.stats["configs"] <= 2000 * (1 << 10)
    assert res_base.eve_region

    doubled = random_game(11, n=4000, k=10, density=4 / 4000, color_size=(40, 200))
    time_doubled, res_doubled = timed_solve(doubled)
    assert res_doubled.stats["configs"] <= 4000 * (1 << 10)
    assert time_doubled / time_base <= 2.5
