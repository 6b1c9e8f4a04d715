"""Epistemic models, belief operators, and the two foundation checkers."""

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction
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
    random_model,
    rat_event,
    rationality_event,
    restriction_of,
    standard_model,
    validate,
)
from epigame.games import (
    BudgetExceededError,
    Game,
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


def test_standard_model_keeps_colliding_profile_names_apart(tmp_path):
    """Strategy names with commas can join two profiles into one name; the
    later one gets a suffix a model file keeps, unused by any other name."""
    game_text = (
        "players 2\nstrategies 1 a a,b\nstrategies 2 b,c c b,c~4\n"
        + "".join(
            f"payoff {s} {t} 0 0\n" for s in ("a", "a,b") for t in ("b,c", "c", "b,c~4")
        )
    )
    (tmp_path / "comma.game").write_text(game_text)
    game = load_game_file(tmp_path / "comma.game")
    model = standard_model(game.full_restriction())
    assert model.state_names == (
        "a,b,c", "a,c", "a,b,c~4", "a,b,b,c", "a,b,c~5", "a,b,b,c~4",
    )
    loaded = parse_model(model_to_text(model, "comma.game"), str(tmp_path))
    assert loaded.model.state_names == model.state_names
    assert loaded.model.assignment == model.assignment


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
        model = random_model(rng, game, 6, "knowledge" if k % 2 else "belief")
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
        model = random_model(rng, game, 5, "knowledge" if k % 2 else "belief")
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
        model = random_model(rng, game, 6, "belief")
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
        mode = "belief" if k % 3 == 0 else "knowledge"
        model = random_model(rng, game, 6, mode)
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


@pytest.mark.parametrize("names, bad", [
    (("w 1", "v"), "'w 1'"), (("a#", "v"), "'a#'"), (("", "v"), "''"), (("v", "v"), "'v'"),
])
def test_model_to_text_refuses_state_names_parse_model_cannot_read(names, bad):
    model = EpistemicModel(PD, names, ((C, D), (C, D)))
    with pytest.raises(ValueError) as info:
        model_to_text(model, "g.game")
    assert str(info.value).startswith(f"a file cannot hold the state name {bad}: ")


def test_model_to_text_refuses_the_strategy_names_its_assign_lines_write():
    table = {p: (Fraction(0), Fraction(0)) for p in itertools.product(range(4), range(3))}
    game = Game((("a", "b#", "c", "c"), ("x", "y z", "w")), table)
    for assignment, bad in [
        (((1,), (0,)), "player 1's strategy name 'b#'"),
        (((3,), (0,)), "player 1's strategy name 'c'"),
        (((0,), (1,)), "player 2's strategy name 'y z'"),
    ]:
        with pytest.raises(ValueError) as info:
            model_to_text(EpistemicModel(game, ("u",), assignment), "g.game")
        assert str(info.value).startswith(f"a file cannot hold {bad}: ")
    # names that no assign line writes are not refused
    text = model_to_text(EpistemicModel(game, ("u",), ((0,), (2,))), "g.game")
    assert text.splitlines()[2:4] == ["assign u 1 a", "assign u 2 w"]


# A second 'states' line after P lines, and a second 'game' line naming a
# game with fewer strategies than the first: both are refused at that line.
REPEATED = {
    "".join((DATA / "fig2.emodel").read_text().splitlines(keepends=True)[2:8])
    + "P 1 w_ul : w_ul\nP 1 w_dr : w_dr\nP 2 w_ul : w_ul w_dr\nP 2 w_dr : w_ul w_dr\n"
    + "states s\n": ("line 11: 'states' given twice", 11),
    "game threebytwo.game\nstates a b\n"
    + "assign a 1 B\nassign a 2 R\nassign b 1 B\nassign b 2 R\n"
    + "game pd.game\n": ("line 7: 'game' given twice", 7),
}


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
    pinned = {
        "game g.game\nassign w 1 C\n": ("line 2: 'assign' before 'states'", 2),
        "game g.game\nstates w\nassign w x C\n": ("line 3: bad player 'x'", 3),
        "game g.game\nstates w\nlevel foo\n": (
            "line 3: expected 'level bare|belief|knowledge'", 3
        ),
    }
    for text, (message, line) in pinned.items():
        err = _bad_model(text, tmp_path)
        assert (str(err), err.line) == (message, line), text
    for text, (message, line) in REPEATED.items():
        with pytest.raises(ModelFormatError) as info:
            parse_model(text, str(DATA))
        assert (str(info.value), info.value.line) == (message, line)


def test_p_line_errors_carry_line_numbers(tmp_path):
    head = "game g.game\nstates w\nassign w 1 C\nassign w 2 C\n"
    for player in ("3", "0"):
        err = _bad_model(head + f"P {player} w : w\n", tmp_path)
        assert f"player {player} out of range" in str(err) and err.line == 5
    err = _bad_model(head + "P 1 v : w\n", tmp_path)
    assert "unknown state 'v'" in str(err) and err.line == 5
    err = _bad_model(head + "P 1 w : w v\n", tmp_path)
    assert "unknown state 'v'" in str(err) and err.line == 5
    err = _bad_model("game g.game\nP 1 w : w\n", tmp_path)
    assert (str(err), err.line) == ("line 2: 'P' before 'states'", 2)
    err = _bad_model(head + "P x w : w\n", tmp_path)
    assert (str(err), err.line) == ("line 5: bad player 'x'", 5)


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
    pinned = {
        "game g.game\n": ("missing 'states' line", None),
        "game g.game\nstates\n": ("line 2: no states listed", 2),
        "game\nstates w\n": ("line 1: expected 'game <path>'", 1),
    }
    for text, (message, line) in pinned.items():
        err = _bad_model(text, tmp_path)
        assert (str(err), err.line) == (message, line), text


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
    assert validate(random_model(rng, game, 8, "knowledge"), "knowledge") == []
    assert validate(random_model(rng, game, 8, "belief"), "belief") == []


def test_random_models_draw_what_they_drew_before():
    """The random stream of the model generators is pinned: 300 seeded draws
    over two- and three-player games hash as they always have."""
    digest = hashlib.sha256()
    for seed in range(150):
        rng = random.Random(seed)
        game = random_game(rng, CheckConfig(count=0), n=2 + seed % 2)
        for level in ("knowledge", "belief"):
            model = random_model(rng, game, 8, level)
            blocks = [[sorted(b) for b in model.blocks(i)] for i in range(game.n)]
            digest.update(repr((model.state_names, model.assignment, blocks)).encode())
    assert digest.hexdigest() == (
        "1ce8ac8d7bf1673ddcdc0324a29288f5beb8cd03793453784601e71b7a2a7ae8"
    )


def test_random_bare_models_draw_what_they_drew_before():
    """The bare level draws the state count, then the assignment, and no
    blocks: 300 seeded draws, and the stream left after each, hash as they
    always have."""
    digest = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        game = random_game(rng, CheckConfig(count=0), n=2 + seed % 2)
        model = epistemic.random_model(rng, game, 8, "bare")
        digest.update(repr((model.state_names, model.assignment, model.correspondences,
                            rng.random())).encode())
    assert digest.hexdigest() == (
        "f79947745184a1de5a0e1d25f09469ac4f3de6d4394a92769ded4500b7e8ae7f"
    )


def test_epist1_on_games_past_the_enumeration_budget():
    """Declared-monotone profiles need no enumeration, so a 6x6 game runs."""
    rng = random.Random(66)
    cfg = CheckConfig(count=0, min_strategies=6, max_strategies=6, budget=12)
    game = random_game(rng, cfg, n=2)
    assert [game.strategy_count(i) for i in range(2)] == [6, 6]
    model = random_model(rng, game, 8, "knowledge")
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
        yield game, random_model(rng, game, max_states, "belief" if k % 2 else "knowledge")


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

            def logged(G, candidates):
                calls.append((G, candidates))
                return inner.rule(G, candidates)

            prop = OptimalityProperty("logged", 0, game, logged)
            assert rationality_event(source, prop) == _reference_rationality_event(model, inner)
            played = {}  # images -> the owner's strategies at states with those images
            for w in model.states():
                sets = restriction_of(model, model.blocks(0)[w]).sets
                played.setdefault(sets, set()).add(model.strategy_of(0, w))
            # one rule call per strategy image, for the own strategies played there
            assert sorted((G.sets, sorted(asked)) for G, asked in calls) == sorted(
                (sets, sorted(own)) for sets, own in played.items())
            if model is twins:
                assert len(calls) == 1


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


# ---------- the model reader ----------


def _assert_one_object_per_block(model):
    """Blocks equal in value, over all players, are one frozenset object."""
    flat = [block for blocks in model.correspondences for block in blocks]
    by_object, by_value = {}, {}
    assert [by_object.setdefault(id(block), k) for k, block in enumerate(flat)] == [
        by_value.setdefault(block, k) for k, block in enumerate(flat)
    ]


def _assert_same_loaded(a, b):
    assert (a.level, a.game_path) == (b.level, b.game_path)
    assert a.model.game.strategy_names == b.model.game.strategy_names
    assert a.model.state_names == b.model.state_names
    assert a.model.assignment == b.model.assignment
    assert a.model.correspondences == b.model.correspondences
    if a.model.correspondences is not None:
        _assert_one_object_per_block(a.model)


def _variants(text, rng):
    """Rewritings of a model text that keep its meaning: (name, text)."""
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
    yield "as written", text
    yield "comments", join(["# a model", *head, *(f"{line}  # note" for line in body)])
    yield "crlf", "\r\n".join(lines) + "\r\n"
    yield "blank and whitespace-only lines", join(head + spaced)
    yield "indented", join(f"  {line}\t" for line in lines)
    yield "tabs in assign lines", join(
        head + [line.replace(" ", "\t") if line.startswith("assign") else line for line in body]
    )
    yield "tabs everywhere", text.replace(" ", "\t")
    yield "reordered lines", join(head + shuffled)
    yield "player 01", join(head + zero_player)


def test_column_reader_matches_the_line_loop_on_the_bundled_models():
    """Each bundled model, written out again and rewritten in every way that
    keeps its meaning, reads as the file does."""
    rng = random.Random(5)
    for path in sorted(DATA.glob("*.emodel")):
        loaded = load_model_file(path)
        text = model_to_text(loaded.model, loaded.game_path, loaded.level)
        for name, variant in _variants(text, rng):
            _assert_same_loaded(parse_model(variant, str(DATA)), loaded)


def test_model_reader_reads_every_variant_of_random_models(tmp_path):
    rng = random.Random(77)
    for k, (game, model) in enumerate(_random_models(77, 16, max_states=12)):
        (tmp_path / f"g{k}.game").write_text(game_to_text(game))
        for level in ("bare", "belief", "knowledge" if k % 2 == 0 else "belief"):
            text = model_to_text(model, f"g{k}.game", level)
            written = parse_model(text, str(tmp_path))
            for name, variant in _variants(text, rng):
                parsed = parse_model(variant, str(tmp_path))
                assert parsed.model.assignment == model.assignment, (k, name)
                assert parsed.model.correspondences == model.correspondences, (k, name)
                assert parsed.level == level
                _assert_same_loaded(parsed, written)


def test_model_reader_takes_state_names_with_colons(tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    text = (
        "game g.game\nstates a:1 b: :c\n"
        "assign a:1 1 C\nassign a:1 2 C\nassign b: 1 D\nassign b: 2 D\n"
        "assign :c 1 C\nassign :c 2 D\n"
        "P 1 a:1 : a:1 b:\nP 1 b: : a:1 b:\nP 1 :c : :c\n"
        "P 2 a:1 : a:1\nP 2 b: : b: :c\nP 2 :c : :c b:\n"
    )
    loaded = parse_model(text, str(tmp_path))
    assert loaded.level == "belief"
    assert loaded.model.P(1, 2) == frozenset({1, 2})
    _assert_one_object_per_block(loaded.model)
    # a state named ':' reads the same
    colon = parse_model(text.replace(":c", ":"), str(tmp_path))
    assert colon.model.P(1, 2) == frozenset({1, 2})
    assert colon.model.correspondences == loaded.model.correspondences


def test_column_reader_declines_lines_that_line_up_only_when_joined(tmp_path):
    """Tokens that fall into the right places only once the lines are joined
    are refused at the faulty line."""
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


def test_block_texts_that_differ_only_in_spacing_are_one_block(tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    text = (
        "game g.game\nstates u v\n"
        "assign u 1 C\nassign u 2 C\nassign v 1 D\nassign v 2 D\n"
        "P 1 u : u v\nP 1 v :  u   v \nP 2 u :\tu\tv\t\nP 2 v : u v  # both\n"
    )
    model = parse_model(text, str(tmp_path)).model
    assert model.P(0, 0) == frozenset({0, 1})
    assert len({id(block) for blocks in model.correspondences for block in blocks}) == 1


def test_an_unknown_state_in_a_block_text_is_named_at_its_line(tmp_path):
    head = "game g.game\nstates u v\nassign u 1 C\nassign u 2 C\nassign v 1 D\nassign v 2 D\n"
    for listed in ("x u v", "u x v", "u v x", "u\tv  x "):
        # the same block text read once before, and new here
        for before in ("", "P 1 u : u v\n"):
            err = _bad_model(head + before + f"P 1 v : {listed}\n", tmp_path)
            line = 7 + before.count("\n")
            assert (str(err), err.line) == (f"line {line}: unknown state 'x'", line), listed


def test_a_states_line_is_read_whole(tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    names = ("a", "b", "c", "d", "e", "f")
    text = "game g.game\nstates  a b\tc d  e f \n" + "".join(
        f"assign {w} {i} C\n" for w in names for i in (1, 2)
    )
    assert parse_model(text, str(tmp_path)).model.state_names == names


def test_a_p_line_with_nothing_after_the_colon_is_the_empty_block(tmp_path):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    head = "game g.game\nstates u\nassign u 1 C\nassign u 2 C\nP 2 u : u\n"
    for empty in ("P 1 u :", "P 1 u :   ", "P 1 u :\t# no state"):
        loaded = parse_model(head + empty + "\n", str(tmp_path))
        assert loaded.model.P(0, 0) == frozenset()
        assert loaded.level == "bare"  # an empty block fails the belief level


def test_a_model_parse_loads_its_game_once(tmp_path, monkeypatch):
    (tmp_path / "g.game").write_text(game_to_text(PD))
    calls = []
    real = epistemic.load_game_file
    monkeypatch.setattr(epistemic, "load_game_file", lambda path: calls.append(path) or real(path))
    text = "game g.game\nstates w\nassign w 01 C\nassign w 2 D\n"
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
    """rationality_event reads no declaration, so a wrong own_independent
    leaves it equal to the per-state reference; the condition-A oracle
    reads only the rule, so it still refutes the declaration."""
    refuted = 0
    for game, model in _random_models(79, 16, max_strategies=3, max_states=8):
        for name in ("sd_l", "br_l"):
            for i in range(game.n):
                honest = builtin(game, name, i)
                wrong = dataclasses.replace(honest, own_independent=True)
                want = _reference_rationality_event(model, honest)
                assert rationality_event(model, honest) == want
                assert rationality_event(model, wrong) == want
                report = satisfies_condition_A(wrong)
                assert report == satisfies_condition_A(honest)
                refuted += not report.independent
    assert refuted


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
