"""Public announcements: single effects, properness, and the two iterations."""

import random
import warnings
from pathlib import Path

import pytest

from epigame.announcements import (
    announced_restriction,
    effect,
    is_proper,
    is_standard,
    is_standard_knowledge,
    iterate_optimality_announcements,
    iterate_rationality_announcements,
    misses_announced_restriction,
    models_equal_via_profiles,
    optimality_event,
)
from epigame.checks import CheckConfig, random_game
from epigame.epistemic import (
    EpistemicModel,
    event_of_restriction,
    load_model_file,
    random_model,
    rationality_event,
    restriction_of,
    standard_model,
    validate,
)
from epigame.games import Restriction, load_game_file
from epigame.operators import iterate_to_outcome
from epigame.optimality import OptimalityProperty, profile_named

DATA = Path(__file__).resolve().parents[1] / "data"

PD = load_game_file(DATA / "pd.game")
TBT = load_game_file(DATA / "threebytwo.game")


def _cylinder(model, i, names):
    keep = {model.game.index(i, nm) for nm in names}
    return frozenset(w for w in model.states() if model.strategy_of(i, w) in keep)


# ---------- single announcements ----------


def test_effect_keeps_the_intersection():
    model = standard_model(PD.full_restriction(), correspondences=True)
    events = (_cylinder(model, 0, ["D"]), model.all_event())
    after = effect(model, events)
    assert after.state_names == ("D,C", "D,D")
    assert after.profile_of(0) == (1, 0)
    # correspondences are cut down and reindexed to the survivors
    assert validate(after, "knowledge") == []
    assert after.P(0, 0) == frozenset({0, 1})
    assert after.P(1, 0) == frozenset({0})


def test_effect_can_empty_a_possibility_set():
    model = standard_model(PD.full_restriction(), correspondences=True)
    keep = frozenset({model.state_index("C,D"), model.state_index("D,C")})
    after = effect(model, (keep, keep))
    # each survivor's old block lost its other member but kept the state itself
    assert validate(after, "knowledge") == []
    off_diagonal = effect(
        model,
        (
            frozenset({model.state_index("C,C")}),
            frozenset({model.state_index("C,C"), model.state_index("D,D")}),
        ),
    )
    assert off_diagonal.num_states == 1


def test_effect_validates_events():
    model = standard_model(PD.full_restriction())
    with pytest.raises(ValueError):
        effect(model, (model.all_event(),))
    with pytest.raises(ValueError):
        effect(model, (frozenset({9}), model.all_event()))
    # the message names the one state outside 0..num_states-1, at either end
    for bad in (-1, model.num_states, 9):
        for check in (effect, announced_restriction):
            with pytest.raises(ValueError, match=rf"^state {bad} is not in the model$"):
                check(model, (model.all_event(), frozenset({0, bad, 2})))
    assert effect(model, (frozenset(), model.all_event())).num_states == 0
    assert effect(model, (frozenset({0, 3}), frozenset({3}))).state_names == ("D,D",)


def test_announced_restriction_and_miss_flag():
    loaded = load_model_file(DATA / "fig2.emodel")
    model = loaded.model
    events = (frozenset({0}), frozenset({1}))
    announced = announced_restriction(model, events)
    assert not announced.is_empty()
    after = effect(model, events)
    assert after.num_states == 0
    assert misses_announced_restriction(model, events)
    # announcing an empty component is a miss of a different kind: no flag
    assert not misses_announced_restriction(model, (frozenset(), frozenset({1})))


# ---------- standard and proper models ----------


def test_standard_shapes():
    bare = standard_model(PD.full_restriction())
    assert is_standard(bare)
    assert not is_standard_knowledge(bare)
    knowing = standard_model(PD.full_restriction(), correspondences=True)
    assert is_standard_knowledge(knowing)
    # standard, but each player knows the whole profile, not only their own strategy
    singletons = tuple(frozenset([w]) for w in knowing.states())
    omniscient = EpistemicModel(PD, knowing.state_names, knowing.assignment, (singletons,) * 2)
    assert is_standard(omniscient)
    assert not is_standard_knowledge(omniscient)
    duplicated = effect(bare, (bare.all_event(), bare.all_event()))
    assert is_standard(duplicated)


def test_proper_announcements_are_own_strategy_cylinders():
    model = standard_model(PD.full_restriction())
    good = (_cylinder(model, 0, ["D"]), _cylinder(model, 1, ["C", "D"]))
    assert is_proper(model, good)
    crooked = (frozenset({model.state_index("D,C")}), model.all_event())
    assert not is_proper(model, crooked)
    # properness fails off standard models
    diag = frozenset({model.state_index("C,C"), model.state_index("D,D")})
    lopsided = effect(model, (diag, diag))
    assert not is_standard(lopsided)  # half the induced product is missing
    assert not is_proper(lopsided, (lopsided.all_event(), lopsided.all_event()))


def test_proper_effect_is_the_standard_model_of_the_target():
    model = standard_model(TBT.full_restriction())
    events = (_cylinder(model, 0, ["T", "M"]), _cylinder(model, 1, ["L"]))
    assert is_proper(model, events)
    after = effect(model, events)
    target = standard_model(TBT.restriction([["T", "M"], ["L"]]))
    assert models_equal_via_profiles(after, target, check_correspondences=False)


def test_optimality_event():
    model = standard_model(PD.full_restriction())
    prop = profile_named(PD, "sd_g")[0]
    assert optimality_event(model, prop) == _cylinder(model, 0, ["D"])
    small = PD.restriction([["C", "D"], ["C"]])
    assert optimality_event(model, prop, small) == _cylinder(model, 0, ["D"])


# ---------- iterated optimality announcements ----------


def test_optimality_iteration_reaches_the_outcome():
    for game, name in ((PD, "sd_l"), (TBT, "msd_l"), (TBT, "wd_l")):
        profile = profile_named(game, name)
        trace = iterate_optimality_announcements(profile)
        outcome = iterate_to_outcome(profile).outcome
        assert all(is_standard(m) for m in trace.models)
        assert models_equal_via_profiles(
            trace.terminal, standard_model(outcome), check_correspondences=False
        )
        assert restriction_of(trace.terminal, trace.terminal.all_event()) == outcome


def test_optimality_iteration_records_events():
    profile = profile_named(PD, "sd_l")
    trace = iterate_optimality_announcements(profile)
    assert trace.rounds == 1
    assert len(trace.events) == 1
    model = trace.models[0]
    assert trace.events[0] == (_cylinder(model, 0, ["D"]), _cylinder(model, 1, ["D"]))


def test_optimality_iteration_from_a_start():
    profile = profile_named(PD, "sd_l")
    start = standard_model(PD.restriction([["D"], ["C", "D"]]))
    trace = iterate_optimality_announcements(profile, start=start)
    assert trace.terminal.num_states == 1
    assert trace.terminal.profile_of(0) == (1, 1)


# ---------- iterated rationality announcements ----------


def test_rationality_iteration_matches_elimination_for_globals():
    for game, name in ((PD, "sd_g"), (TBT, "msd_g"), (TBT, "br_g")):
        profile = profile_named(game, name)
        trace = iterate_rationality_announcements(profile)
        outcome_trace = iterate_to_outcome(profile)
        assert trace.rounds == outcome_trace.closure_ordinal
        target = standard_model(outcome_trace.outcome, correspondences=True)
        assert models_equal_via_profiles(trace.terminal, target)
        assert is_standard_knowledge(trace.terminal)


def test_rationality_announcements_are_silent_for_locals():
    """Own-strategy blocks pin the player's component, making locals vacuous."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # locals must not trigger the screening
        trace = iterate_rationality_announcements(
            profile_named(PD, "sd_g"), check_condition=True
        )
    assert trace.rounds == 1
    for name in ("sd_l", "br_l", "mwd_l"):
        with pytest.warns(UserWarning, match="own component"):
            trace = iterate_rationality_announcements(profile_named(PD, name))
        assert trace.rounds == 0


def test_rationality_iteration_requires_correspondences():
    with pytest.raises(ValueError):
        iterate_rationality_announcements(
            profile_named(PD, "sd_g"), start=standard_model(PD.full_restriction())
        )


def test_screening_can_be_disabled():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = iterate_rationality_announcements(
            profile_named(PD, "sd_l"), check_condition=False
        )
    assert trace.rounds == 0


def _per_state_rationality_event(model, prop):
    """One restriction and one holds call per state."""
    i = prop.player
    out = set()
    for w in model.states():
        block = model.P(i, w)
        sets = tuple(
            frozenset(model.strategy_of(j, v) for v in block) for j in range(model.game.n)
        )
        if prop.holds(model.strategy_of(i, w), Restriction(model.game, sets)):
            out.add(w)
    return frozenset(out)


def _from_scratch(profile, start, event=_per_state_rationality_event):
    """Rationality announcements that decide every state in every round."""
    models, rounds = [start], []
    while True:
        events = tuple(event(models[-1], prop) for prop in profile)
        after = effect(models[-1], events)
        if after.num_states == models[-1].num_states:
            return models, rounds
        models.append(after)
        rounds.append(events)


def _seeded_models(seed, count):
    rng = random.Random(seed)
    cfg = CheckConfig(count=0, max_players=3, max_strategies=3)
    for k in range(count):
        game = random_game(rng, cfg)
        yield game, random_model(rng, game, 8, "belief" if k % 2 else "knowledge")


def test_rationality_rounds_equal_the_from_scratch_loop():
    """Deciding again only the states whose block was cut gives the models
    and events of deciding every state in every round."""
    later_rounds = 0
    for game, model in _seeded_models(41, 60):
        for name in ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g"):
            profile = profile_named(game, name)
            trace = iterate_rationality_announcements(profile, start=model, check_condition=False)
            models, rounds = _from_scratch(profile, model)
            assert trace.events == tuple(rounds), name
            assert len(trace.models) == len(models)
            for got, want in zip(trace.models, models):
                assert got.state_names == want.state_names
                assert got.assignment == want.assignment
                assert got.correspondences == want.correspondences
            later_rounds += trace.rounds >= 2
    assert later_rounds >= 80  # the incremental rounds are exercised


def test_rationality_rounds_ask_only_about_the_cut_states(monkeypatch):
    """After the first round, a state whose block lost nothing is not asked
    about again, so there are fewer survivors calls than from scratch."""
    calls = []
    survivors = OptimalityProperty.survivors
    monkeypatch.setattr(
        OptimalityProperty, "survivors", lambda *args: calls.append(1) or survivors(*args)
    )
    fewer = 0
    for game, model in _seeded_models(42, 40):
        profile = profile_named(game, "sd_g")
        del calls[:]
        trace = iterate_rationality_announcements(profile, start=model, check_condition=False)
        incremental = len(calls)
        del calls[:]
        _from_scratch(profile, model, rationality_event)
        assert incremental <= len(calls)
        fewer += incremental < len(calls)
        if trace.rounds == 0:  # only the first round ran
            assert incremental == len(calls)
    assert fewer >= 10


# ---------- model comparison helper ----------


def test_models_equal_via_profiles():
    a = standard_model(PD.full_restriction(), correspondences=True)
    b = standard_model(PD.full_restriction(), correspondences=True)
    assert models_equal_via_profiles(a, b)
    bare = standard_model(PD.full_restriction())
    assert not models_equal_via_profiles(a, bare)
    assert models_equal_via_profiles(a, bare, check_correspondences=False)
    smaller = standard_model(PD.restriction([["D"], ["D"]]))
    assert not models_equal_via_profiles(bare, smaller)
    other_game = load_game_file(DATA / "pd.game")
    assert not models_equal_via_profiles(
        a, standard_model(other_game.full_restriction(), correspondences=True)
    )


def test_screening_trusts_declared_globals_past_the_budget():
    """A 6x6 game is past the screening's enumeration budget; the _g
    variants are own-independent by construction and are not screened."""
    rng = random.Random(6)
    cfg = CheckConfig(count=0, min_strategies=6, max_strategies=6, budget=12)
    game = random_game(rng, cfg, n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = iterate_rationality_announcements(profile_named(game, "sd_g"))
    outcome = iterate_to_outcome(profile_named(game, "sd_g")).outcome
    assert restriction_of(trace.terminal, trace.terminal.all_event()) == outcome
    with pytest.warns(UserWarning, match="screening skipped for sd_l"):
        iterate_rationality_announcements(profile_named(game, "sd_l"))
