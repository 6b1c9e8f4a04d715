"""The randomized cross-check registry and counterexample replay."""

import random

import pytest

from epigame import checks, logic
from epigame.checks import (
    CHECK_POOLS,
    CHECKS,
    SUITES,
    CheckConfig,
    _inclusion_payload,
    _model_payload,
    _restore_model,
    random_game,
    random_positive_body,
    run_check,
    run_suite,
    verify_counterexample,
)
from epigame.epistemic import EpistemicModel, random_model
from epigame.games import game_to_text, load_game
from epigame.logic import var_positive
from epigame.operators import iterate_to_outcome
from epigame.optimality import BUILTIN_NAMES, profile_named

WDW_TEXT = """players 2
strategies 1 a b
strategies 2 c d
payoff a c 0 0
payoff a d 0 0
payoff b c 0 0
payoff b d 1 0
"""


MONOTONE = ("sd_g", "msd_g", "br_g")
ALL_BUILTINS = (
    "sd_l", "sd_g", "msd_l", "msd_g", "wd_l", "wd_g", "mwd_l", "mwd_g", "br_l", "br_g", "brc_l",
)


def test_registry_lists_every_check_in_its_suite_and_pool():
    assert tuple(CHECKS) == (
        "epist1_belief", "epist1_knowledge", "epist1_witness", "epist2_identity",
        "just_chain", "just_model", "just1_pearce", "just1_model", "operator_laws",
        "local_global_outcome", "gfp_characterizations", "common_belief_formula",
        "survival_formula", "note_7_1_proper", "note_7_2_operator", "note_7_4_pinned",
        "formula3_valid", "formula4_rat", "nu_postfixpoints", "positivity_monotone",
        "compiled_agreement", "derivation_valid", "condition_a_globals",
        "announce_optimality", "announce_rationality",
    )
    assert SUITES == {
        "epist1": ("epist1_belief", "epist1_knowledge", "epist1_witness"),
        "epist2": ("epist2_identity",),
        "just": ("just_chain", "just_model", "operator_laws", "local_global_outcome"),
        "just1": ("just1_pearce", "just1_model"),
        "notes": (
            "gfp_characterizations", "common_belief_formula", "survival_formula",
            "note_7_1_proper", "note_7_2_operator", "note_7_4_pinned",
        ),
        "logic": (
            "formula3_valid", "formula4_rat", "nu_postfixpoints", "positivity_monotone",
            "compiled_agreement", "derivation_valid",
        ),
        "announce": ("condition_a_globals", "announce_optimality", "announce_rationality"),
        "all": tuple(CHECKS),
    }
    assert list(SUITES) == ["epist1", "epist2", "just", "just1", "notes", "logic", "announce", "all"]
    assert CHECK_POOLS == {
        "epist1_belief": MONOTONE,
        "epist1_knowledge": MONOTONE,
        "epist1_witness": MONOTONE,
        "epist2_identity": ("sd_l", "msd_l", "wd_l", "mwd_l", "br_l", "brc_l"),
        "common_belief_formula": ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g"),
        "survival_formula": MONOTONE,
        "formula3_valid": MONOTONE,
        "formula4_rat": ("sd_g", "br_g"),
        "nu_postfixpoints": ("sd_g", "br_g"),
        "operator_laws": ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g", "msd_l", "msd_g"),
        "note_7_2_operator": ALL_BUILTINS,
        "announce_optimality": ALL_BUILTINS,
    }


def test_registry_is_consistent():
    assert set(SUITES["all"]) == set(CHECKS)
    for suite, names in SUITES.items():
        for name in names:
            assert name in CHECKS, (suite, name)
    for name, pool in CHECK_POOLS.items():
        assert name in CHECKS
        assert set(pool) <= set(BUILTIN_NAMES)


def test_run_check_unknown_name():
    with pytest.raises(KeyError):
        run_check("nope", CheckConfig())
    with pytest.raises(KeyError):
        run_suite("nope", CheckConfig())


def test_a_sample_of_checks_passes():
    cfg = CheckConfig(seed=5, count=3)
    for name in ("just_chain", "gfp_characterizations", "derivation_valid"):
        result = run_check(name, cfg)
        assert result.passed, (name, result.detail)
        assert result.instances >= 3 or name == "derivation_valid"


def test_checks_are_deterministic():
    cfg = CheckConfig(seed=9, count=4)
    assert run_check("survival_formula", cfg) == run_check("survival_formula", cfg)


def test_parallel_run_matches_serial():
    # workers look every check up by name in their own copy of the registry
    cfg = CheckConfig(seed=2, count=2)
    serial = run_suite("all", cfg, jobs=1)
    parallel = run_suite("all", cfg, jobs=2)
    assert [r.name for r in serial] == list(CHECKS)
    assert serial == parallel


def test_property_override_narrows_the_pool():
    cfg = CheckConfig(seed=0, count=4, properties=("sd_g",))
    assert run_check("epist1_knowledge", cfg).passed


def test_library_runs_refuse_properties_outside_the_pool():
    cfg = CheckConfig(seed=0, count=1, properties=("wd_g",))
    message = "check formula3_valid only accepts properties from: sd_g, msd_g, br_g"
    with pytest.raises(ValueError, match=message):
        run_check("formula3_valid", cfg)
    with pytest.raises(ValueError, match=message):
        run_suite("logic", cfg)


# ---------- counterexample payloads ----------


def test_model_payload_round_trip():
    rng = random.Random(6)
    game = random_game(rng, CheckConfig(count=0), n=2)
    model = random_model(rng, game, 8, "bare")
    restored = _restore_model(game, _model_payload(model))
    assert restored.state_names == model.state_names
    assert restored.assignment == model.assignment
    assert restored.correspondences is None


def _violating_payload():
    """wd_g is not monotone, so common knowledge of wd_g-rationality can keep
    a strategy the elimination wipes out."""
    game = load_game(WDW_TEXT)
    model = EpistemicModel(
        game,
        ("w",),
        ((game.index(0, "a"),), (game.index(1, "c"),)),
        ((frozenset({0}),), (frozenset({0}),)),
    )
    return _inclusion_payload(
        game, model, ["wd_g", "wd_g"], ["wd_g", "wd_g"], "knowledge"
    )


def test_verify_counterexample_reproduces_a_violation():
    payload = _violating_payload()
    assert verify_counterexample(payload)


def test_verify_counterexample_rejects_a_non_violation():
    payload = _violating_payload()
    # the same model poses no threat to the monotone sd_g outcome
    payload["rat"] = ["sd_g", "sd_g"]
    payload["outcome"] = ["sd_g", "sd_g"]
    assert not verify_counterexample(payload)


def test_verify_counterexample_refuses_a_malformed_payload():
    payload = _violating_payload()
    payload["rat"] = ["wd_g"] * 3
    with pytest.raises(ValueError, match="^expected 1 or 2 property names, got 3$"):
        verify_counterexample(payload)
    payload = _violating_payload()
    payload["rat"] = ["sd_g", "sd_g"]
    payload["belief_class"] = "correlated"
    with pytest.raises(ValueError, match="^sd_g does not take a belief class$"):
        verify_counterexample(payload)


def test_verify_counterexample_unknown_claim():
    with pytest.raises(ValueError):
        verify_counterexample({"claim": "sorcery", "game": WDW_TEXT})


def _force_failure(monkeypatch, name):
    """Make the pooled check `name` fail on its first instance."""
    if name == "epist1_belief":
        monkeypatch.setattr(checks, "_belief_inclusion_holds", lambda *args: False)
    elif name == "epist1_witness":
        monkeypatch.setattr(checks, "_witness_equality_holds", lambda profile: False)
    else:  # every non-empty event is a postfixpoint outside an empty fixpoint
        monkeypatch.setattr(logic, "eval_lnu", lambda model, formula, profile: frozenset())
        monkeypatch.setattr(logic, "lnu_denotation", lambda model, body, profile: lambda F: F)


@pytest.mark.parametrize("name", ["epist1_belief", "epist1_witness", "nu_postfixpoints"])
def test_failing_pooled_checks_name_the_drawn_game_and_properties(monkeypatch, name):
    """The registry draws a pooled check's instance and writes it into the
    counterexample, whatever the check itself reports."""
    drawn = []
    draw = checks._random_profile

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(checks, "_random_profile", recording)
    _force_failure(monkeypatch, name)
    result = run_check(name, CheckConfig(seed=3, count=5))
    assert (result.passed, result.instances, len(drawn)) == (False, 1, 1)
    payload = result.counterexample
    game, names, profile = drawn[0]
    assert (payload["game"], payload["rat"]) == (game_to_text(game), names)
    rebuilt = profile_named(load_game(payload["game"]), payload["rat"])
    assert game_to_text(rebuilt[0].game) == payload["game"]
    assert [(p.name, p.player) for p in rebuilt] == [(p.name, p.player) for p in profile]
    outcome = iterate_to_outcome(rebuilt).outcome.sets
    assert outcome == iterate_to_outcome(profile).outcome.sets
    if payload["claim"] == "inclusion":
        assert verify_counterexample(payload)
        monkeypatch.undo()  # the real inclusion holds, so the replay finds no violation
        assert not verify_counterexample(payload)


# ---------- random instance helpers ----------


def test_random_game_respects_bounds():
    rng = random.Random(1)
    cfg = CheckConfig(count=0, max_players=3, max_strategies=4, budget=10)
    for _ in range(30):
        game = random_game(rng, cfg)
        assert 2 <= game.n <= 3
        total = sum(game.strategy_count(i) for i in range(game.n))
        assert total <= cfg.budget
        assert all(
            2 <= game.strategy_count(i) <= 4 for i in range(game.n)
        )


def test_lp_heavy_games_stay_small():
    rng = random.Random(2)
    cfg = CheckConfig(count=0)
    for _ in range(10):
        game = random_game(rng, cfg, n=2, lp_heavy=True)
        assert max(game.strategy_count(i) for i in range(2)) <= 3
        game = random_game(rng, cfg, n=3, lp_heavy=True)
        assert max(game.strategy_count(i) for i in range(3)) <= 2
    # the cap bounds max_strategies, it does not replace it
    cfg = CheckConfig(count=0, min_strategies=1, max_strategies=1)
    for n in (2, 3):
        for _ in range(50):
            game = random_game(rng, cfg, n=n, lp_heavy=True)
            assert [game.strategy_count(i) for i in range(n)] == [1] * n


def test_random_positive_bodies_are_positive():
    rng = random.Random(3)
    game = load_game(WDW_TEXT)
    for _ in range(50):
        assert var_positive(random_positive_body(rng, game))


def test_game_text_round_trip_of_random_games():
    rng = random.Random(4)
    cfg = CheckConfig(count=0)
    for _ in range(10):
        game = random_game(rng, cfg)
        again = load_game(game_to_text(game))
        assert again.strategy_names == game.strategy_names
        assert again.table == game.table


def test_random_games_name_more_than_ten_strategies():
    rng = random.Random(5)
    cfg = CheckConfig(count=0, max_strategies=12, budget=40)
    widest = 0
    for _ in range(20):
        game = random_game(rng, cfg)
        for names in game.strategy_names:
            assert len(set(names)) == len(names)
            assert names[:10] == tuple("abcdefghij")[: len(names)]
            widest = max(widest, len(names))
        again = load_game(game_to_text(game))
        assert again.strategy_names == game.strategy_names
    assert widest > 10


def test_config_rejects_sizes_the_generators_cannot_draw():
    CheckConfig(count=0, min_players=2, max_players=2, min_strategies=1, max_strategies=1,
                payoff_bound=0, max_states=1)
    for option, value, smallest, others in (
        ("count", -1, 0, {}),
        ("min_players", 1, 2, {}),
        ("max_players", 1, 2, {}),
        ("min_strategies", 0, 1, {}),
        ("max_strategies", 0, 1, {"min_strategies": 1}),
        # random_game would clamp the minimum and draw 3x3x3 games
        ("max_strategies", 3, 5, {"min_strategies": 5}),
        ("payoff_bound", -1, 0, {}),
        ("max_states", 0, 1, {}),
    ):
        with pytest.raises(ValueError, match=f"{option} must be at least {smallest}, got {value}"):
            CheckConfig(**others, **{option: value})


def test_worker_pool_is_capped_at_the_number_of_checks(monkeypatch):
    import concurrent.futures

    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    cfg = CheckConfig(count=1)
    assert [r.passed for r in run_suite("epist2_identity", cfg, jobs=64)] == [True]
    assert len(run_suite("just1", cfg, jobs=64)) == 2
    assert len(run_suite("just1", cfg, jobs=2)) == 2
    assert started == [1, 2, 2]
