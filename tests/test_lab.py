"""Simulation, verification, the minimax oracle and the memory searches."""

import dataclasses
import random

import pytest

from genreach import (
    BudgetExceededError,
    FiniteMemoryStrategy,
    InitRequiredError,
    InvalidGameError,
    MemoryStructure,
    Owner,
    Reason,
    StateCountTooLargeError,
    canonical_flower_eve,
    check_play,
    compress_adam,
    flower_adversary,
    identity_memory,
    min_memory_search,
    minimax_oracle,
    search_budget,
    simulate,
    solve_fpt,
    verify_strategy,
)
from genreach.lab import COLOR_OBS, FULL_CLASS
from helpers import (
    machine_tables,
    random_game,
    random_machine,
    reference_min_memory_search,
)

E, A = Owner.EVE, Owner.ADAM


def positional(player, moves=None):
    return FiniteMemoryStrategy(player, identity_memory(), moves or {})


def test_simulate_eve_collects_all_colors(flower2):
    sigma = canonical_flower_eve(2)
    tau = positional(A)
    outcome = simulate(flower2, sigma, tau)
    assert outcome.winner is E
    assert outcome.reason is Reason.ALL_COLORS
    assert outcome.play.masks[-1] == 3
    check_play(flower2, outcome.play)
    assert outcome.steps == len(outcome.play.vertices) - 1


def test_simulate_adam_wins_on_repeat(flower2):
    # A memoryless Eve repeats her petal choice forever; the joint
    # configuration loops before the second color shows up.
    sigma = positional(E)
    tau = positional(A)
    outcome = simulate(flower2, sigma, tau)
    assert outcome.winner is A
    assert outcome.reason is Reason.STATE_REPEAT
    assert outcome.play.masks[-1] != 3
    check_play(flower2, outcome.play)


def test_simulate_requires_init(flower2):
    headless = dataclasses.replace(flower2, init=None)
    with pytest.raises(InitRequiredError):
        simulate(headless, positional(E), positional(A))


def test_simulate_checks_player_order(flower2):
    with pytest.raises(InvalidGameError, match="Eve strategy then an Adam"):
        simulate(flower2, positional(A), positional(E))


def test_simulate_rejects_non_edge_moves(flower2):
    heart = 0
    cheat = positional(A, {(heart, 0): heart})  # h has no self-loop
    with pytest.raises(InvalidGameError, match="not an edge"):
        simulate(flower2, canonical_flower_eve(2), cheat)


def test_simulate_immediate_win_with_no_colors(demo):
    from genreach import Objective

    empty = dataclasses.replace(
        demo, objective=Objective.from_sets(demo.arena.n, [])
    )
    outcome = simulate(empty, positional(E), positional(A))
    assert outcome.winner is E and outcome.steps == 0


def test_verify_accepts_canonical_flower_machine(flower2):
    check = verify_strategy(flower2, canonical_flower_eve(2), [flower2.init])
    assert check.winning
    assert check.failing_vertex is None and check.counterexample is None
    assert len(check.states_used) <= 3


def test_verify_refutes_memoryless_flower_eve(flower2):
    check = verify_strategy(flower2, positional(E), [flower2.init])
    assert not check.winning
    assert check.failing_vertex == flower2.init
    # The counterexample is a legal play that closes a loop short of the
    # full mask.
    check_play(flower2, check.counterexample)
    assert check.counterexample.masks[-1] != 3
    assert check.counterexample.vertices[-1] in check.counterexample.vertices[:-1]


def test_verify_refutes_false_adam_claim(demo):
    check = verify_strategy(demo, positional(A), [demo.init])
    assert not check.winning
    assert check.failing_vertex == demo.init
    check_play(demo, check.counterexample)
    assert check.counterexample.masks[-1] == 3


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
    with pytest.raises(InitRequiredError):
        minimax_oracle(dataclasses.replace(flower2, init=None))


def test_minimax_node_budget(flower3):
    with pytest.raises(BudgetExceededError, match="exceeded 10 nodes"):
        minimax_oracle(flower3, budget=10)


def test_minimax_horizon_guard():
    big = random_game(3, n=4000, k=3, density=0.001)
    with pytest.raises(BudgetExceededError, match="beyond desk scale"):
        minimax_oracle(big)


def test_minimax_full_horizon_needs_no_recursion():
    # A 4999-vertex Eve cycle through color 1, and an unreachable color-2
    # sink: n * k = 10000, the largest horizon the oracle accepts.
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
        assert mem.step(s, heart, petal1) == s


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


def test_min_memory_rejects_bad_arguments(flower2):
    with pytest.raises(ValueError, match="machine class"):
        min_memory_search(flower2, E, 2, "telepathic")
    with pytest.raises(ValueError, match="bound"):
        min_memory_search(flower2, E, 0)


def test_min_memory_budget(flower2):
    with pytest.raises(BudgetExceededError, match="budget of 40 expansions"):
        min_memory_search(flower2, E, 2, FULL_CLASS, budget=40)


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


def test_search_budget_env_override(monkeypatch):
    monkeypatch.delenv("GENREACH_BUDGET", raising=False)
    assert search_budget(123) == 123
    monkeypatch.setenv("GENREACH_BUDGET", "77")
    assert search_budget(123) == 77
    monkeypatch.setenv("GENREACH_BUDGET", "lots")
    with pytest.raises(ValueError, match="GENREACH_BUDGET"):
        search_budget(123)


def test_flower_adversary_beats_memoryless_eve():
    refutation = flower_adversary(2, positional(E))
    assert refutation.outcome.winner is A
    assert 0 <= refutation.x < 3
    assert refutation.x not in refutation.stopping_sets
    assert refutation.petals


def test_flower_adversary_rejects_large_machines():
    with pytest.raises(StateCountTooLargeError, match="below 3"):
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


def test_flower_refutation_json(flower2):
    refutation = flower_adversary(2, positional(E))
    doc = refutation.to_json(flower2)
    assert set(doc) == {"X", "stopping_sets", "moves", "play"}
    assert all(isinstance(name, str) for name in doc["play"])
    assert doc["play"][0] == "h"
