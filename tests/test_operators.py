"""The elimination operator, its iteration, and the fixpoint cross-checks."""

import operator
import random
from pathlib import Path

import pytest

from epigame.checks import CheckConfig, random_game
from epigame.games import (
    BudgetExceededError,
    Restriction,
    all_restrictions,
    load_game_file,
    restriction_leq,
)
from epigame.operators import (
    LemmaHypothesisError,
    NotShrinkingError,
    apply_T,
    check_lemma_inc,
    descend,
    iterate_to_outcome,
    largest_fixpoint_via_postfixpoints,
    serialize_trace,
)
from epigame.optimality import (
    BUILTIN_NAMES,
    MONOTONE_BUILTINS,
    NonMonotonicPropertyError,
    constant_property,
    profile_named,
)

DATA = Path(__file__).resolve().parents[1] / "data"

PD = load_game_file(DATA / "pd.game")
TBT = load_game_file(DATA / "threebytwo.game")


def test_apply_T_on_pd():
    profile = profile_named(PD, "sd_l")
    once = apply_T(profile, PD.full_restriction())
    assert once.describe() == "{D} | {D}"
    assert apply_T(profile, once) == once


def test_apply_T_is_deflationary_for_all_builtins():
    for name in BUILTIN_NAMES:
        profile = profile_named(PD, name)
        for G in all_restrictions(PD):
            assert restriction_leq(apply_T(profile, G), G), name


def _per_strategy_T(profile, G):
    """The reference operator: ask holds once per strategy."""
    return Restriction(G.game, tuple(
        frozenset(s for s in part if profile[i].holds(s, G)) for i, part in enumerate(G.sets)
    ))


def test_apply_T_equals_the_per_strategy_filter():
    """apply_T decides each player's set at once; on every restriction of
    seeded 2- and 3-player games, and along every elimination, it equals the
    holds filter."""
    rng = random.Random(1515)
    draws = [(2, 3, 1), (2, 3, 9), (2, 4, 3), (3, 2, 1), (3, 2, 9)]
    games = [PD, TBT] + [
        random_game(rng, CheckConfig(count=0, max_players=n, max_strategies=cap,
                                     payoff_bound=bound), n=n)
        for n, cap, bound in draws
    ]
    for game in games:
        profiles = [profile_named(game, name) for name in BUILTIN_NAMES]
        profiles += [profile_named(game, "br_g", belief_class="correlated"),
                     profile_named(game, "sd_l,wd_g" if game.n == 2 else "br_l,sd_g,mwd_l")]
        for profile in profiles:
            for G in all_restrictions(game):
                assert apply_T(profile, G) == _per_strategy_T(profile, G), (profile, G.describe())
            stages = [game.full_restriction()]
            while (nxt := _per_strategy_T(profile, stages[-1])) != stages[-1]:
                stages.append(nxt)
            assert iterate_to_outcome(profile).stages == tuple(stages), profile


def test_iterate_pd():
    trace = iterate_to_outcome(profile_named(PD, "sd_l"))
    assert trace.closure_ordinal == 1
    assert trace.outcome.describe() == "{D} | {D}"
    assert trace.stages[0].is_full()


def test_iterate_stages_strictly_shrink():
    trace = iterate_to_outcome(profile_named(TBT, "msd_l"))
    for earlier, later in zip(trace.stages, trace.stages[1:]):
        assert restriction_leq(later, earlier) and later != earlier
    assert apply_T(trace.profile, trace.outcome) == trace.outcome


def test_threebytwo_outcomes_differ_by_property():
    pure = iterate_to_outcome(profile_named(TBT, "sd_l")).outcome
    mixed = iterate_to_outcome(profile_named(TBT, "msd_l")).outcome
    B = TBT.index(0, "B")
    assert B in pure.sets[0]
    assert B not in mixed.sets[0]


def test_iterate_from_a_start():
    profile = profile_named(PD, "sd_l")
    start = PD.restriction([["C"], ["C"]])
    trace = iterate_to_outcome(profile, start=start)
    assert trace.outcome == start  # mutual cooperation is closed under sd_l
    empty = iterate_to_outcome(profile, start=PD.empty_restriction())
    assert empty.closure_ordinal == 0
    assert empty.outcome.is_empty()


def test_serialize_trace():
    text = serialize_trace(iterate_to_outcome(profile_named(PD, "sd_l")))
    assert text.splitlines() == ["stage 0: {C,D} | {C,D}", "stage 1: {D} | {D}"]


def test_descend_stops_at_the_first_kept_value_and_refuses_growth():
    assert descend(12, lambda n: n // 2, operator.le) == [12, 6, 3, 1, 0]
    with pytest.raises(NotShrinkingError):
        descend(frozenset({1}), lambda F: F | {len(F) + 1}, operator.le)


# ---------- the greatest fixpoint route ----------


def test_postfixpoint_join_matches_iteration():
    for name in MONOTONE_BUILTINS:
        profile = profile_named(PD, name)
        assert largest_fixpoint_via_postfixpoints(profile) == iterate_to_outcome(profile).outcome


def test_postfixpoint_join_on_random_games():
    rng = random.Random(2)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for _ in range(10):
        game = random_game(rng, cfg, n=2)
        profile = profile_named(game, "sd_g")
        assert largest_fixpoint_via_postfixpoints(profile) == iterate_to_outcome(profile).outcome


def test_postfixpoint_join_guards():
    with pytest.raises(NonMonotonicPropertyError):
        largest_fixpoint_via_postfixpoints(profile_named(PD, "sd_l"))
    with pytest.raises(BudgetExceededError):
        largest_fixpoint_via_postfixpoints(profile_named(PD, "sd_g"), budget_restrictions=8)


# ---------- outcome inclusion lemma ----------


def test_lemma_inc_for_the_known_chain():
    rng = random.Random(4)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for _ in range(10):
        game = random_game(rng, cfg, n=2)
        report = check_lemma_inc(profile_named(game, "br_g"), profile_named(game, "sd_g"))
        assert report.holds
        assert restriction_leq(report.outcome_small, report.outcome_large)
        assert report.hypothesis_checked_on > 0


def test_lemma_inc_rejects_a_false_hypothesis():
    keep_all = tuple(constant_property(PD, i) for i in range(2))
    with pytest.raises(LemmaHypothesisError) as info:
        check_lemma_inc(keep_all, profile_named(PD, "sd_g"))
    assert info.value.restriction.game is PD


def test_lemma_inc_requires_monotone_second_operator():
    with pytest.raises(NonMonotonicPropertyError):
        check_lemma_inc(profile_named(PD, "sd_g"), profile_named(PD, "sd_l"))
