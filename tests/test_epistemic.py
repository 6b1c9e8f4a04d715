"""Epistemic models, belief operators, and the two foundation checkers."""

import dataclasses
import random
from pathlib import Path

import pytest

from epigame import epistemic
from epigame.announcements import effect
from epigame.checks import CheckConfig, random_game
from epigame.epistemic import (
    EpistemicModel,
    ModelFormatError,
    box,
    check_fixed_point_characterizations,
    check_theorem_epist1,
    check_theorem_epist2,
    common_box,
    construct_witness,
    event_of_restriction,
    is_evident,
    load_model_file,
    model_to_text,
    optimality_event,
    parse_model,
    pinned_restriction,
    random_belief_model,
    random_knowledge_model,
    rat_event,
    rationality_event,
    restriction_of,
    standard_model,
    validate,
)
from epigame.games import (
    BudgetExceededError,
    Restriction,
    all_restrictions,
    game_to_text,
    load_game_file,
)
from epigame.logic import compile_lo_to_property, lo_text, parse_lo
from epigame.operators import iterate_to_outcome
from epigame.optimality import (
    BUILTIN_NAMES,
    NonMonotonicPropertyError,
    OptimalityProperty,
    builtin,
    profile_named,
    satisfies_condition_A,
)

DATA = Path(__file__).resolve().parents[1] / "data"

PD = load_game_file(DATA / "pd.game")
C, D = 0, 1


def _pd_knowledge():
    return standard_model(PD.full_restriction(), correspondences=True)


# ---------- model basics and validation ----------


def test_standard_model_layout():
    model = standard_model(PD.full_restriction())
    assert model.num_states == 4
    assert model.state_names == ("C,C", "C,D", "D,C", "D,D")
    assert model.profile_of(model.state_index("D,C")) == (D, C)
    assert model.correspondences is None
    with pytest.raises(ValueError):
        model.P(0, 0)
    with pytest.raises(KeyError):
        model.state_index("E,E")


def test_standard_model_with_correspondences():
    model = _pd_knowledge()
    assert validate(model, "knowledge") == []
    w = model.state_index("C,D")
    assert model.P(0, w) == frozenset({model.state_index("C,C"), w})
    assert pinned_restriction(model, 0, w).sets == (frozenset({C}), frozenset({C, D}))


def test_validate_levels():
    bare = standard_model(PD.full_restriction())
    assert validate(bare, "bare") == []
    assert validate(bare, "belief")  # missing correspondences
    with pytest.raises(ValueError):
        validate(bare, "common")
    # a non-introspective frame fails belief validation
    corr = ((frozenset({1}), frozenset({0})),) * 2
    crooked = EpistemicModel(PD, ("u", "v"), ((C, C), (C, C)), corr)
    assert any("introspective" in p for p in validate(crooked, "belief"))
    # introspective but not reflexive: belief passes, knowledge does not
    corr = ((frozenset({1}), frozenset({1})),) * 2
    serial = EpistemicModel(PD, ("u", "v"), ((C, C), (C, C)), corr)
    assert validate(serial, "belief") == []
    assert any("contain the state" in p for p in validate(serial, "knowledge"))


def test_validate_rejects_empty_block():
    corr = ((frozenset(), frozenset()),) * 2
    model = EpistemicModel(PD, ("u", "v"), ((C, C), (C, C)), corr)
    assert any("empty" in p for p in validate(model, "belief"))


# ---------- box and common belief ----------


def _cb_oracle(model, event):
    """Common belief by reachability: every path of length >= 1 stays in the event."""
    succ = [set() for _ in model.states()]
    for i in range(model.game.n):
        for w in model.states():
            succ[w] |= model.P(i, w)
    reach = [set(s) for s in succ]
    changed = True
    while changed:
        changed = False
        for w in model.states():
            grown = set(reach[w])
            for v in reach[w]:
                grown |= reach[v]
            if grown != reach[w]:
                reach[w] = grown
                changed = True
    return frozenset(w for w in model.states() if reach[w] <= event)


def test_box_on_pd_knowledge_model():
    model = _pd_knowledge()
    defect = frozenset(
        w for w in model.states() if model.strategy_of(0, w) == D
    )
    assert box(model, defect, player=0) == defect  # own strategy is known
    assert box(model, defect, player=1) == frozenset()


def test_common_box_matches_reachability():
    rng = random.Random(12)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for k in range(30):
        game = random_game(rng, cfg)
        model = (
            random_knowledge_model(rng, game, max_states=6)
            if k % 2
            else random_belief_model(rng, game, max_states=6)
        )
        event = frozenset(w for w in model.states() if rng.random() < 0.6)
        assert common_box(model, event) == _cb_oracle(model, event)


def test_evident_events():
    model = _pd_knowledge()
    assert is_evident(model, model.all_event())
    assert is_evident(model, frozenset())
    # player 1's own row is evident to them alone, so not to everyone
    own_row = frozenset(w for w in model.states() if model.strategy_of(0, w) == C)
    assert box(model, own_row, player=0) >= own_row
    assert not is_evident(model, own_row)
    assert not is_evident(model, frozenset({model.state_index("C,C")}))


def test_fixed_point_characterizations():
    rng = random.Random(9)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for k in range(12):
        game = random_game(rng, cfg)
        model = (
            random_knowledge_model(rng, game, max_states=5)
            if k % 2
            else random_belief_model(rng, game, max_states=5)
        )
        event = frozenset(w for w in model.states() if rng.random() < 0.5)
        report = check_fixed_point_characterizations(model, event)
        assert all(report.values()), report
        if k % 2:
            assert "knowledge_reaches_event" in report


def test_characterization_budget():
    with pytest.raises(BudgetExceededError):
        check_fixed_point_characterizations(_pd_knowledge(), frozenset(), budget_states=3)


# ---------- events and restrictions ----------


def test_restriction_event_round_trip():
    model = standard_model(PD.full_restriction())
    G = PD.restriction([["D"], ["C", "D"]])
    event = event_of_restriction(model, G)
    assert event == frozenset({model.state_index("D,C"), model.state_index("D,D")})
    assert restriction_of(model, event) == G


def test_event_of_restriction_matches_a_per_state_reference():
    """Restrictions with empty components, on models that are not standard."""
    rng = random.Random(19)
    cfg = CheckConfig(max_strategies=3)
    for _ in range(20):
        game = random_game(rng, cfg, rng.randint(2, 3))
        model = random_belief_model(rng, game, 6)
        for G in all_restrictions(game):
            expected = frozenset(
                w
                for w in model.states()
                if all(model.strategy_of(i, w) in G.sets[i] for i in range(game.n))
            )
            assert event_of_restriction(model, G) == expected


def test_restriction_of_per_player_events():
    model = standard_model(PD.full_restriction())
    events = [frozenset({model.state_index("C,C")}), frozenset({model.state_index("D,D")})]
    assert restriction_of(model, events).sets == (frozenset({C}), frozenset({D}))
    with pytest.raises(ValueError):
        restriction_of(model, [frozenset()])


# ---------- rationality events ----------


def test_rationality_event_local_vs_global():
    model = _pd_knowledge()
    local = rationality_event(model, profile_named(PD, "sd_l")[0])
    assert local == model.all_event()  # own-strategy blocks pin the singleton
    prof_g = profile_named(PD, "sd_g")
    glob = rationality_event(model, prof_g[0])
    assert glob == frozenset(w for w in model.states() if model.strategy_of(0, w) == D)
    assert rat_event(model, prof_g) == frozenset({model.state_index("D,D")})


def test_epist1_on_pd_knowledge_model():
    report = check_theorem_epist1(_pd_knowledge(), profile_named(PD, "sd_g"))
    assert report.ok
    assert report.mode == "knowledge"
    assert report.event == frozenset()  # common knowledge of rat is empty here
    assert report.lhs.is_empty()


def test_epist1_random_models():
    rng = random.Random(21)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for k in range(20):
        game = random_game(rng, cfg)
        profile = profile_named(game, "br_g" if k % 2 else "sd_g")
        if k % 3 == 0:
            model, mode = random_belief_model(rng, game, 6), "belief"
        else:
            model, mode = random_knowledge_model(rng, game, 6), "knowledge"
        report = check_theorem_epist1(model, profile, mode=mode)
        assert report.ok


def test_epist1_guards():
    bare = standard_model(PD.full_restriction())
    with pytest.raises(ValueError):
        check_theorem_epist1(bare, profile_named(PD, "sd_g"), mode="belief")
    with pytest.raises(NonMonotonicPropertyError):
        check_theorem_epist1(_pd_knowledge(), profile_named(PD, "sd_l"))


def test_witness_model_attains_the_outcome():
    rng = random.Random(13)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for _ in range(10):
        game = random_game(rng, cfg)
        profile = profile_named(game, "sd_g")
        witness = construct_witness(profile)
        report = check_theorem_epist1(witness, profile)
        assert report.ok and report.mode == "knowledge"
        assert report.lhs == iterate_to_outcome(profile).outcome


def test_epist2_locals_exclude_nothing():
    for name in ("sd_l", "msd_l", "wd_l", "mwd_l", "br_l", "brc_l"):
        report = check_theorem_epist2(profile_named(PD, name))
        assert report.hypothesis_ok and report.ok, name
        assert report.lhs.is_full()


def test_epist2_fails_without_singleton_truth():
    report = check_theorem_epist2(profile_named(PD, "sd_g"))
    assert not report.hypothesis_ok
    assert not report.ok  # on this game the conclusion actually breaks


# ---------- model files ----------


def test_load_bundled_model():
    loaded = load_model_file(DATA / "fig2.emodel")
    assert loaded.level == "bare"
    assert loaded.model.state_names == ("w_ul", "w_dr")
    assert loaded.model.correspondences is None


def test_model_round_trip(tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    model = _pd_knowledge()
    text = model_to_text(model, "g.game", "knowledge")
    loaded = parse_model(text, base_dir=str(tmp_path))
    assert loaded.level == "knowledge"
    assert loaded.model.state_names == model.state_names
    assert loaded.model.assignment == model.assignment
    assert loaded.model.correspondences == model.correspondences


def _bad_model(text, tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    with pytest.raises(ModelFormatError) as info:
        parse_model(text, base_dir=str(tmp_path))
    return info.value


def test_model_errors_carry_line_numbers(tmp_path):
    err = _bad_model("states w\n", tmp_path)
    assert "before 'game'" in str(err) and err.line == 1
    err = _bad_model("game g.game\nstates w w\n", tmp_path)
    assert "duplicate state" in str(err)
    err = _bad_model("game g.game\nstates w\nassign v 1 C\n", tmp_path)
    assert "unknown state 'v'" in str(err) and err.line == 3
    err = _bad_model("game g.game\nstates w\nassign w 3 C\n", tmp_path)
    assert "out of range" in str(err)
    err = _bad_model("game g.game\nstates w\nassign w 1 Z\n", tmp_path)
    assert "unknown strategy 'Z'" in str(err)
    err = _bad_model(
        "game g.game\nstates w\nassign w 1 C\nassign w 1 D\n", tmp_path
    )
    assert "given twice" in str(err) and err.line == 4


def test_p_line_errors_carry_line_numbers(tmp_path):
    head = "game g.game\nstates w\nassign w 1 C\nassign w 2 C\n"
    for player in ("3", "0"):
        err = _bad_model(head + f"P {player} w : w\n", tmp_path)
        assert f"player {player} out of range" in str(err) and err.line == 5
    err = _bad_model(head + "P 1 v : w\n", tmp_path)
    assert "unknown state 'v'" in str(err) and err.line == 5
    err = _bad_model(head + "P 1 w : w v\n", tmp_path)
    assert "unknown state 'v'" in str(err) and err.line == 5


def test_model_errors_structure(tmp_path):
    err = _bad_model("game g.game\nstates w\nassign w 1 C\n", tmp_path)
    assert "no strategy assigned to player 2" in str(err)
    err = _bad_model(
        "game g.game\nstates u v\n"
        "assign u 1 C\nassign u 2 C\nassign v 1 D\nassign v 2 D\n"
        "P 1 u : u\n",
        tmp_path,
    )
    assert "P lines present but" in str(err)
    err = _bad_model("game g.game\nstates w\nhello\n", tmp_path)
    assert "unexpected directive 'hello'" in str(err)
    err = _bad_model("", tmp_path)
    assert "missing 'game'" in str(err)


def test_model_level_is_checked(tmp_path):
    text = (
        "game g.game\nstates u v\n"
        "assign u 1 C\nassign u 2 C\nassign v 1 D\nassign v 2 D\n"
        "P 1 u : v\nP 1 v : v\nP 2 u : u v\nP 2 v : u v\n"
        "level knowledge\n"
    )
    err = _bad_model(text, tmp_path)
    assert "does not validate at level knowledge" in str(err)
    # the same frame is fine at belief level
    (tmp_path / "g.game").write_text(game_to_text(PD))
    loaded = parse_model(text.replace("level knowledge", "level belief"), str(tmp_path))
    assert loaded.level == "belief"


def test_model_level_inferred_when_absent(tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    text = (
        "game g.game\nstates u\nassign u 1 C\nassign u 2 C\nP 1 u : u\nP 2 u : u\n"
    )
    assert parse_model(text, str(tmp_path)).level == "belief"


def test_random_generators_validate():
    rng = random.Random(8)
    game = random_game(rng, CheckConfig(count=0), n=2)
    assert validate(random_knowledge_model(rng, game), "knowledge") == []
    assert validate(random_belief_model(rng, game), "belief") == []


def test_epist1_on_games_past_the_enumeration_budget():
    """Declared-monotone profiles need no enumeration, so a 6x6 game runs."""
    rng = random.Random(66)
    cfg = CheckConfig(count=0, min_strategies=6, max_strategies=6, budget=12)
    game = random_game(rng, cfg, n=2)
    assert [game.strategy_count(i) for i in range(2)] == [6, 6]
    model = random_knowledge_model(rng, game, 8)
    for name in ("sd_g", "br_g"):
        report = check_theorem_epist1(model, profile_named(game, name), mode="knowledge")
        assert report.ok, name


# ---------- shared possibility blocks ----------


def _reference_rationality_event(model, prop):
    """One restriction and one holds call per state: no cache, no sharing."""
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


def _reference_validate(model, level):
    """The per-state validation loop, with no verdict kept between states."""
    problems = []
    for i in range(model.game.n):
        for w in model.states():
            block = model.P(i, w)
            if not block:
                problems.append(f"P_{i + 1}({model.state_names[w]}) is empty")
                continue
            for w2 in block:
                if model.P(i, w2) != block:
                    problems.append(
                        f"P_{i + 1} not introspective at {model.state_names[w]}: "
                        f"P_{i + 1}({model.state_names[w2]}) differs"
                    )
                    break
            if level == "knowledge" and w not in block:
                problems.append(
                    f"P_{i + 1}({model.state_names[w]}) does not contain the state itself"
                )
    return problems


def _unshared(model):
    """The same model with a fresh, equal block object at every state."""
    corr = tuple(
        tuple(frozenset(sorted(block, reverse=True)) for block in blocks)
        for blocks in model.correspondences
    )
    return EpistemicModel(model.game, model.state_names, model.assignment, corr)


def _assert_shared(model):
    """Members of a block point at that very object; one object per value."""
    for blocks in model.correspondences:
        for block in blocks:
            for v in block:
                assert blocks[v] is block
        assert len({id(b) for b in blocks}) == len(set(blocks))


def _random_models(seed, count, max_strategies=3, max_states=8):
    rng = random.Random(seed)
    cfg = CheckConfig(count=0, max_players=3, max_strategies=max_strategies)
    for k in range(count):
        game = random_game(rng, cfg)
        make = random_belief_model if k % 2 else random_knowledge_model
        yield game, make(rng, game, max_states)


def test_rationality_event_equals_the_per_state_reference(tmp_path):
    for k, (game, model) in enumerate(_random_models(71, 24)):
        (tmp_path / f"g{k}.game").write_text(game_to_text(game))
        loaded = parse_model(model_to_text(model, f"g{k}.game"), base_dir=str(tmp_path)).model
        for name in ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g"):
            for i in range(game.n):
                want = _reference_rationality_event(model, builtin(game, name, i))
                assert rationality_event(model, builtin(game, name, i)) == want, (k, name)
                assert rationality_event(_unshared(model), builtin(game, name, i)) == want
                assert rationality_event(loaded, builtin(loaded.game, name, i)) == want


def test_rationality_event_equals_the_reference_for_msd_on_small_games():
    for game, model in _random_models(72, 10, max_strategies=3, max_states=6):
        for i in range(game.n):
            prop = builtin(game, "msd_l", i)
            want = _reference_rationality_event(model, prop)
            assert rationality_event(model, prop) == want
            assert rationality_event(_unshared(model), prop) == want


def test_blocks_are_shared_after_parse_standard_model_and_effect(tmp_path):
    for k, (game, model) in enumerate(_random_models(73, 12, max_states=10)):
        (tmp_path / f"g{k}.game").write_text(game_to_text(game))
        loaded = parse_model(model_to_text(model, f"g{k}.game"), base_dir=str(tmp_path)).model
        _assert_shared(loaded)
        rng = random.Random(k)
        events = [frozenset(rng.sample(range(model.num_states), model.num_states // 2 + 1))]
        for source in (loaded, _unshared(model)):
            _assert_shared(effect(source, events * game.n))
        _assert_shared(standard_model(game.full_restriction(), correspondences=True))
    cfg = CheckConfig(count=0, min_strategies=4, max_strategies=4, budget=12)
    cube = random_game(random.Random(73), cfg, n=3)
    model = standard_model(cube.full_restriction(), correspondences=True)
    _assert_shared(model)
    assert [len({id(b) for b in blocks}) for blocks in model.correspondences] == [4, 4, 4]


def test_rationality_event_shares_one_restriction_per_strategy_image():
    # two blocks of P_1 with the same strategy images: one restriction for both
    halves = (frozenset({0, 1}),) * 2 + (frozenset({2, 3}),) * 2
    twins = EpistemicModel(
        PD, ("a", "b", "c", "d"), ((C, D, C, D), (C, D, C, D)), (halves, halves)
    )
    for game, model in [(PD, twins)] + list(_random_models(75, 12)):
        for source in (model, _unshared(model)):
            calls = []
            inner = builtin(game, "br_g", 0)
            prop = OptimalityProperty(
                "logged", 0, game, lambda s, G: calls.append((s, G)) or inner.holds(s, G)
            )
            assert rationality_event(source, prop) == _reference_rationality_event(model, inner)
            keys = [(G.sets, s) for s, G in calls]
            assert len(keys) == len(set(keys))  # one holds call per (images, strategy)
            objects = {}
            for s, G in calls:
                assert objects.setdefault(G.sets, G) is G  # one restriction per images
            if model is twins:
                assert len(calls) == 2 and len(objects) == 1


def test_effect_shares_equal_cuts():
    # P_1 has the core blocks {0} and {1}; states 2 and 3 point at them.
    # Announcing {2, 3} cuts both blocks to the empty set.
    one, two = frozenset({0}), frozenset({1})
    everyone = frozenset(range(4))
    model = EpistemicModel(
        PD, ("a", "b", "c", "d"), ((C, C, D, D), (C, D, C, D)),
        ((one, two, one, two), (everyone,) * 4),
    )
    assert validate(model, "belief") == []
    after = effect(model, [frozenset({2, 3})] * 2)
    assert after.correspondences[0] == (frozenset(), frozenset())
    assert after.correspondences[0][0] is after.correspondences[0][1]
    _assert_shared(after)


def test_validate_keeps_the_per_state_problems_list():
    u, v, w = 0, 1, 2
    names, assignment = ("u", "v", "w"), ((C, C, C), (C, C, C))
    good = (frozenset({u}), frozenset({v}), frozenset({w}))
    shared = frozenset({u, v})
    cases = {
        "empty block": (frozenset(), frozenset({v}), frozenset({w})),
        "shared, not introspective": (shared, frozenset({v}), shared),
        "unshared, not introspective": (frozenset({u, v}), frozenset({v}), frozenset({v, u})),
        "misses its own state": (frozenset({v}), frozenset({v}), frozenset({v})),
    }
    pinned = {
        "shared, not introspective": [
            "P_1 not introspective at u: P_1(v) differs",
            "P_1 not introspective at w: P_1(v) differs",
            "P_1(w) does not contain the state itself",
        ],
        "misses its own state": [
            "P_1(u) does not contain the state itself",
            "P_1(w) does not contain the state itself",
        ],
    }
    for case, blocks in cases.items():
        model = EpistemicModel(PD, names, assignment, (blocks, good))
        for level in ("belief", "knowledge"):
            assert validate(model, level) == _reference_validate(model, level), case
        if case in pinned:
            assert validate(model, "knowledge") == pinned[case]
    # a larger non-introspective block, shared and unshared, on random models
    for game, model in _random_models(74, 12):
        crooked = list(model.correspondences[0])
        crooked[0] = frozenset(model.states())
        crooked = EpistemicModel(
            game, model.state_names, model.assignment, (tuple(crooked),) + model.correspondences[1:]
        )
        for candidate in (crooked, _unshared(crooked)):
            for level in ("belief", "knowledge"):
                assert validate(candidate, level) == _reference_validate(candidate, level)


def test_state_index_keeps_its_answers_and_message():
    names = tuple(f"w{k}" for k in range(300)) + ("w7",)
    model = EpistemicModel(PD, names, (tuple([C] * 301),) * 2)
    assert [model.state_index(nm) for nm in names[:300]] == list(range(300))
    assert model.state_index("w7") == 7  # the first state of that name
    with pytest.raises(KeyError) as info:
        model.state_index("nope")
    assert info.value.args == ("no state named 'nope'",)


# ---------- the column-wise model reader ----------


def _both_paths(text, base_dir):
    """The model as the column-wise reader gives it (None when it declines)
    and as the line loop gives it, both from one game object."""
    lines = epistemic._text_lines(text)
    games = {}
    columns = epistemic._model_columns(lines, base_dir, games)
    loop = epistemic._loaded_model(*epistemic._model_lines(lines, base_dir, games))
    return columns and epistemic._loaded_model(*columns), loop


def _sharing(model):
    """Each block position mapped to the first position holding that very
    object, over all players."""
    first = {}
    flat = [block for blocks in model.correspondences for block in blocks]
    return [first.setdefault(id(block), k) for k, block in enumerate(flat)]


def _assert_same_loaded(a, b):
    assert (a.level, a.game_path) == (b.level, b.game_path)
    assert a.model.game is b.model.game
    assert a.model.state_names == b.model.state_names
    assert a.model.assignment == b.model.assignment
    assert a.model.correspondences == b.model.correspondences
    if a.model.correspondences is not None:
        assert _sharing(a.model) == _sharing(b.model)
        flat = [block for blocks in a.model.correspondences for block in blocks]
        assert len({id(block) for block in flat}) == len(set(flat))  # one object per value


def _variants(text, rng):
    """Rewritings of a model text that keep its meaning: (name, text, whether
    the column-wise reader takes it)."""
    lines = text.splitlines()
    head, body = lines[:2], lines[2:]
    shuffled = list(body)
    rng.shuffle(shuffled)
    first_assign = next(k for k, line in enumerate(body) if line.startswith("assign "))
    zero_player = list(body)
    zero_player[first_assign] = zero_player[first_assign].replace(" 1 ", " 01 ", 1)
    spaced = []
    for line in body:
        spaced += [line, "", "   \t "]
    join = "\n".join
    yield "as written", text, True
    yield "comments", join(["# a model", *head, *(f"{line}  # note" for line in body)]), True
    yield "crlf", "\r\n".join(lines) + "\r\n", True
    yield "blank and whitespace-only lines", join(head + spaced), True
    yield "indented", join(f"  {line}\t" for line in lines), True
    yield "tabs in assign lines", join(
        head + [line.replace(" ", "\t") if line.startswith("assign") else line for line in body]
    ), True
    yield "tabs everywhere", text.replace(" ", "\t"), "\nP " not in text
    yield "reordered lines", join(head + shuffled), True
    yield "player 01", join(head + zero_player), False


def test_column_reader_matches_the_line_loop_on_the_bundled_models():
    for path in sorted(DATA.glob("*.emodel")):
        columns, loop = _both_paths(path.read_text(encoding="utf-8"), str(DATA))
        assert columns is not None, path.name
        _assert_same_loaded(columns, loop)


def test_column_reader_matches_the_line_loop_on_random_models(tmp_path):
    rng = random.Random(77)
    for k, (game, model) in enumerate(_random_models(77, 16, max_states=12)):
        (tmp_path / f"g{k}.game").write_text(game_to_text(game))
        for level in ("bare", "belief", "knowledge" if k % 2 == 0 else "belief"):
            text = model_to_text(model, f"g{k}.game", level)
            for name, variant, bulk in _variants(text, rng):
                columns, loop = _both_paths(variant, str(tmp_path))
                assert (columns is not None) == bulk, (k, name)
                if columns is not None:
                    _assert_same_loaded(columns, loop)
                parsed = parse_model(variant, str(tmp_path))
                assert parsed.model.assignment == model.assignment, (k, name)
                assert parsed.model.correspondences == model.correspondences, (k, name)
                assert parsed.level == level


def test_column_reader_takes_state_names_with_colons(tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    text = (
        "game g.game\nstates a:1 b: :c\n"
        "assign a:1 1 C\nassign a:1 2 C\nassign b: 1 D\nassign b: 2 D\n"
        "assign :c 1 C\nassign :c 2 D\n"
        "P 1 a:1 : a:1 b:\nP 1 b: : a:1 b:\nP 1 :c : :c\n"
        "P 2 a:1 : a:1\nP 2 b: : b: :c\nP 2 :c : :c b:\n"
    )
    columns, loop = _both_paths(text, str(tmp_path))
    assert columns is not None
    _assert_same_loaded(columns, loop)
    assert loop.level == "belief"
    assert loop.model.P(1, 2) == frozenset({1, 2})
    # a state named ':' is left to the line loop, which reads it the same
    colon = text.replace(":c", ":")
    columns, loop = _both_paths(colon, str(tmp_path))
    assert columns is None
    assert loop.model.P(1, 2) == frozenset({1, 2})


def test_column_reader_declines_lines_that_line_up_only_when_joined(tmp_path):
    """Tokens that fall into the right columns only once the lines are joined
    are left to the line loop, which refuses the faulty line."""
    head = "game g.game\nstates "
    cases = {
        # a fifth token on one assign line, a missing one on the next
        head + "aw\nassign aw 1 C assign\naw 2 D\n": (3, "expected 'assign"),
        # a P line cut short before its ' : ' and one running over
        head + "Pw\nassign Pw 1 C\nassign Pw 2 D\nP 1 : Pw\nPw P 2 Pw : Pw\n": (5, "expected 'P"),
        head + "w\nassign w 1 C\nassign w 2 D\nP 1 w\nP 2 w : w\n": (5, "expected 'P"),
    }
    for text, (line, message) in cases.items():
        err = _bad_model(text, tmp_path)
        assert err.line == line and message in str(err), text


def test_a_model_that_falls_back_loads_its_game_once(tmp_path, monkeypatch):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    calls = []
    real = epistemic.load_game_file
    monkeypatch.setattr(epistemic, "load_game_file", lambda path: calls.append(path) or real(path))
    text = "game g.game\nstates w\nassign w 01 C\nassign w 2 D\n"
    assert epistemic._model_columns(epistemic._text_lines(text), str(tmp_path), {}) is None
    calls.clear()
    loaded = parse_model(text, str(tmp_path))
    assert loaded.model.assignment == ((C,), (D,))
    assert len(calls) == 1
    with pytest.raises(ModelFormatError) as info:
        parse_model(text + "assign w 2 C\n", str(tmp_path))
    assert "given twice" in str(info.value) and info.value.line == 5
    assert len(calls) == 2


# ---------- rationality and optimality events, one survivors call per cell ----------


def _event_properties(game, i):
    """Every builtin, br_l/br_g with correlated (and, for two players, mixed)
    beliefs, and compiled first-order properties."""
    props = [builtin(game, name, i) for name in BUILTIN_NAMES]
    classes = ("correlated", "mixed") if game.n == 2 else ("correlated",)
    props += [builtin(game, name, i, belief_class=cls)
              for name in ("br_l", "br_g") for cls in classes]
    props += [compile_lo_to_property(parse_lo(lo_text(name, i)), game, i, name)
              for name in ("sd_l", "wd_g")]
    return props


def _reference_optimality_event(model, prop, restriction):
    return frozenset(
        w for w in model.states() if prop.holds(model.strategy_of(prop.player, w), restriction)
    )


def test_events_equal_the_per_strategy_definition():
    outside = 0  # states whose own strategy lies outside their block's image
    for k, (game, model) in enumerate(_random_models(78, 12, max_strategies=3, max_states=6)):
        rng = random.Random(k)
        event = frozenset(rng.sample(range(model.num_states), model.num_states // 2 + 1))
        for i in range(game.n):
            outside += sum(
                model.strategy_of(i, w) not in {model.strategy_of(i, v) for v in model.P(i, w)}
                for w in model.states()
            )
            for prop in _event_properties(game, i):
                want = frozenset(
                    w for w in model.states()
                    if prop.holds(model.strategy_of(i, w), pinned_restriction(model, i, w))
                )
                assert rationality_event(model, prop) == want, (k, prop.name)
                assert rationality_event(_unshared(model), prop) == want, (k, prop.name)
                for G in (None, restriction_of(model, event)):
                    reference = G or restriction_of(model, model.all_event())
                    assert optimality_event(model, prop, G) == _reference_optimality_event(
                        model, prop, reference
                    ), (k, prop.name)
    assert outside > 0


def test_a_wrong_own_independence_declaration_shows():
    """rationality_event trusts own_independent; the condition-A oracle
    reads only the evaluator, so it still refutes a wrong declaration."""
    caught = []
    for k, (game, model) in enumerate(_random_models(79, 16, max_strategies=3, max_states=8)):
        for name in ("sd_l", "br_l"):
            for i in range(game.n):
                honest = builtin(game, name, i)
                wrong = dataclasses.replace(honest, own_independent=True)
                want = _reference_rationality_event(model, honest)
                assert rationality_event(model, honest) == want
                if rationality_event(model, wrong) != want:
                    caught.append((k, name, i))
                    report = satisfies_condition_A(wrong)
                    assert not report.independent
                    assert report == satisfies_condition_A(honest)
    assert caught


def test_block_readers_need_correspondences_once_a_state_exists():
    """box, rationality_event and validate read each player's blocks once;
    without correspondences they fail as P does, unless there is no state."""
    bare = standard_model(PD.full_restriction())
    for call in (lambda: box(bare, bare.all_event()), lambda: common_box(bare, bare.all_event()),
                 lambda: rationality_event(bare, builtin(PD, "sd_l", 0))):
        with pytest.raises(ValueError, match="model has no possibility correspondences"):
            call()
    assert validate(bare, "belief") == ["level belief requires possibility correspondences"]
    empty = standard_model(PD.empty_restriction())
    assert empty.num_states == 0 and empty.correspondences is None
    assert box(empty, frozenset()) == common_box(empty, frozenset()) == frozenset()
    assert rationality_event(empty, builtin(PD, "sd_l", 0)) == frozenset()
