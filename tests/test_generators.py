"""The built-in game families and the seeded random generator."""

import pytest

from genreach import (
    GenParams,
    Owner,
    UnsupportedInputError,
    canonical_flower_eve,
    generate,
    validate_arena,
    verify_strategy,
)

E, A = Owner.EVE, Owner.ADAM


def test_all_families_produce_well_formed_games():
    games = [
        generate(GenParams("flower", k=3)),
        generate(GenParams("picker", k=5)),
        generate(GenParams("fig4", k=6)),
        generate(GenParams("fig5")),
        generate(GenParams("random", n=20, k=3, density=0.2, seed=9)),
    ]
    for game in games:
        assert validate_arena(game.arena) == []
        assert game.init == 0 or game.arena.names[game.init].startswith("v")


def test_flower_structure(flower2):
    arena = flower2.arena
    assert arena.names == ("h", "v1", "c1", "b1", "v2", "c2", "b2")
    assert arena.owner[0] is A and all(o is E for o in arena.owner[1:])
    ix = arena.index_of
    assert arena.succ[ix("h")] == (ix("v1"), ix("v2"))
    assert arena.succ[ix("b1")] == (ix("b1"),)
    # Petal i holds color i at c_i; b_i carries every other color.
    assert flower2.objective.color_sets == (
        frozenset({ix("c1"), ix("b2")}),
        frozenset({ix("c2"), ix("b1")}),
    )


def test_flower_needs_a_petal():
    with pytest.raises(UnsupportedInputError, match="at least one petal"):
        generate(GenParams("flower", k=0))


def test_canonical_flower_machine_sizes_and_wins():
    for k in (1, 2, 3):
        game = generate(GenParams("flower", k=k))
        sigma = canonical_flower_eve(k)
        assert sigma.memory.states == max(1, 2**k - 1)
        assert verify_strategy(game, sigma, [game.init]).winning


def test_picker_structure(picker3):
    arena = picker3.arena
    assert arena.n == 13
    assert arena.names[0] == "e1_1" and arena.owner[0] is E
    assert arena.names[4] == "a_1" and arena.owner[4] is A
    assert arena.names[8] == "e3_1" and arena.names[12] == "end"
    # Each stage fans out over one pass-through vertex per color.
    assert arena.succ[0] == (1, 2, 3)
    assert arena.succ[12] == (12,)
    assert all(len(s) == 3 for s in picker3.objective.color_sets)


def test_picker_rejects_bad_counts():
    with pytest.raises(UnsupportedInputError, match="odd color count"):
        generate(GenParams("picker", k=4))
    with pytest.raises(UnsupportedInputError, match="odd color count"):
        generate(GenParams("picker", k=1))


def test_fig4_structure(fig44):
    arena = fig44.arena
    assert arena.n == 13
    assert arena.names[:3] == ("h", "p1", "p2")
    assert arena.owner[0] is E
    assert arena.owner[1] is A and arena.owner[2] is A
    ix = arena.index_of
    # The heart chooses between the petals and the answer chain.
    assert arena.succ[0] == (1, 2, ix("c1"))
    # Every color pairs one petal answer with one chain option.
    for j in range(1, 5):
        assert fig44.objective.color_sets[j - 1] == frozenset(
            {ix(f"a{j}"), ix(f"d{j}")}
        )


def test_fig4_rejects_odd_counts():
    with pytest.raises(UnsupportedInputError, match="even color count"):
        generate(GenParams("fig4", k=3))


def test_fig5_structure(fig5):
    arena = fig5.arena
    assert arena.n == 14
    assert [o.value for o in arena.owner].count("adam") == 1
    assert arena.owner[arena.index_of("c")] is A
    ix = arena.index_of
    # Rails pair up colors; the hub options skip exactly one column.
    assert arena.succ[ix("v0")] == (ix("a1"), ix("a3"))
    for j in range(1, 5):
        succ = arena.succ[ix(f"n{j}")]
        assert len(succ) == 3 and ix(f"b{j}") not in succ
        assert fig5.objective.color_sets[j - 1] == frozenset(
            {ix(f"a{j}"), ix(f"b{j}")}
        )


def test_fig5_only_accepts_four_colors():
    with pytest.raises(UnsupportedInputError, match="exactly 4 colors"):
        generate(GenParams("fig5", k=3))
    assert generate(GenParams("fig5", k=4)).arena.n == 14


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generate(GenParams("moebius", k=2))


def test_random_is_reproducible():
    params = GenParams("random", n=30, k=4, density=0.15, seed=42)
    assert generate(params) == generate(params)
    other = GenParams("random", n=30, k=4, density=0.15, seed=43)
    assert generate(other) != generate(params)


def test_random_edge_count_and_names():
    game = generate(GenParams("random", n=10, k=0, density=0.37, seed=1))
    arena = game.arena
    assert arena.names == tuple(f"v{i}" for i in range(10))
    # Self-loop patching can only add edges for dead-end vertices.
    assert 37 <= arena.m <= 47
    assert validate_arena(arena) == []


def test_random_owner_ratio_extremes():
    all_eve = generate(GenParams("random", n=12, k=1, density=0.2, eve_ratio=1.0, seed=2))
    assert all(o is E for o in all_eve.arena.owner)
    all_adam = generate(GenParams("random", n=12, k=1, density=0.2, eve_ratio=0.0, seed=2))
    assert all(o is A for o in all_adam.arena.owner)


def test_random_color_sizes_clamped():
    game = generate(
        GenParams("random", n=3, k=2, density=0.5, color_size=(2, 9), seed=7)
    )
    for members in game.objective.color_sets:
        assert 2 <= len(members) <= 3


def test_random_parameter_validation():
    with pytest.raises(ValueError, match="requires a seed"):
        generate(GenParams("random", n=5, density=0.5))
    with pytest.raises(ValueError, match="at least one vertex"):
        generate(GenParams("random", n=0, density=0.5, seed=1))
    with pytest.raises(ValueError, match="density"):
        generate(GenParams("random", n=5, density=1.5, seed=1))
    with pytest.raises(ValueError, match=r"eve ratio must lie in \[0, 1\]"):
        generate(GenParams("random", n=5, density=0.5, eve_ratio=7.0, seed=1))
    with pytest.raises(ValueError, match="eve ratio"):
        generate(GenParams("random", n=5, density=0.5, eve_ratio=-0.1, seed=1))
    with pytest.raises(ValueError, match="color size bounds"):
        generate(GenParams("random", n=5, density=0.5, color_size=(0, 2), seed=1))
    with pytest.raises(ValueError, match="negative color count"):
        generate(GenParams("random", n=5, k=-1, density=0.5, seed=1))
    # A game needing more than 2^20 draws in all (vertices, edges and
    # color members) is refused before the first draw.
    too_many = [
        (dict(n=(1 << 20) + 1), (1 << 20) + 1 + 2),
        (dict(n=1, k=1 << 20), (1 << 20) + 1),
        # n = 1024 at density 1: the edges alone fill the limit.
        (dict(n=1024, density=1.0), 1024 + (1 << 20) + 2),
        (dict(n=20000, density=1.0), 20000 + 400_000_000 + 2),
        # Each count below 2^20, but 2000 colors of 10^6 members each.
        (dict(n=10**6, k=2000, color_size=(10**6, 10**6)), 10**6 + 2000 * 10**6),
    ]
    for fields, draws in too_many:
        message = f"^{draws} draws \\(vertices, edges and color members\\) exceed the limit 1048576$"
        with pytest.raises(ValueError, match=message):
            generate(GenParams("random", **{"k": 1, "seed": 1, **fields}))
