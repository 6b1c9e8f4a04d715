"""End-to-end command line behavior, including exit codes."""

import importlib.metadata
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epigame.cli import main
from epigame.logic import check_derivation, parse_derivation, parse_lnu

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
PD = str(DATA / "pd.game")
TBT = str(DATA / "threebytwo.game")
FIG2 = str(DATA / "fig2.emodel")
DERIV = str(DATA / "formula3.deriv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_python(*args):
    """Run python with src/ first on the import path, in a new interpreter."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


# ---------- solve ----------


def test_solve_pd(capsys):
    code, out, _ = run(capsys, "solve", PD)
    assert code == 0
    assert "outcome: {D} | {D}" in out
    assert "closure ordinal: 1" in out


def test_solve_trace(capsys):
    code, out, _ = run(capsys, "solve", TBT, "--property", "msd_l", "--trace")
    assert code == 0
    assert "stage 0: {T,M,B} | {L,R}" in out
    assert "outcome:" in out


def test_solve_json_lines(capsys):
    code, out, _ = run(capsys, "--format", "json-lines", "solve", PD)
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["outcome"] == [["D"], ["D"]]
    assert payload["closure_ordinal"] == 1
    assert payload["property"] == ["sd_l", "sd_l"]


def test_solve_per_player_properties(capsys):
    code, out, _ = run(capsys, "solve", PD, "--property", "sd_l,br_g")
    assert code == 0
    assert "property: sd_l,br_g" in out


def test_second_call_reads_only_its_own_options(capsys):
    """The parser is built once per process; nothing parsed may carry over."""
    code, first, _ = run(capsys, "--format", "json-lines", "solve", TBT, "--trace")
    assert code == 0
    code, second, _ = run(capsys, "solve", TBT)
    assert code == 0
    fresh = _fresh_python("-m", "epigame", "solve", TBT)
    assert fresh.returncode == 0, f"stderr:\n{fresh.stderr}"
    assert second == fresh.stdout != first


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", str(DATA / "ghost.game"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["solve", "{data}"],
    ["eval", "{data}", "--formula", "rat"],
    ["derive", "{data}"],
    ["announce", PD, "--emit-model", "{tmp}"],
    ["announce", FIG2, "--property", "sd_l", "--emit-model", "{tmp}"],
])
def test_a_directory_path_is_one_error_line(tmp_path, capsys, argv):
    """The error line is all the run prints: a model that cannot be written
    is refused before any answer reaches stdout."""
    argv = [arg.format(data=DATA, tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", ["\u0663", "1/\u0662"])
def test_solve_refuses_digits_of_other_scripts(tmp_path, capsys, bad):
    path = tmp_path / "arabic.game"
    path.write_text(f"players 2\nstrategies 1 a\nstrategies 2 x\npayoff a x {bad} 1\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line 4: not an integer or p/q rational: {bad!r}\n"


def test_solve_bad_property(capsys):
    code, _, err = run(capsys, "solve", PD, "--property", "zz")
    assert code == 2
    assert "unknown property" in err


def _grid_game(tmp_path):
    """Player 1's m pays 2 everywhere; a pays 3 when player 2 plays x and b
    when they play y, so m is a best response only to a belief that puts
    between 1/3 and 2/3 on x. Players 2 and 3 are indifferent."""
    payoffs = {"a": (3, 3, 0, 0), "b": (0, 0, 3, 3), "m": (2, 2, 2, 2)}
    lines = ["players 3", "strategies 1 a b m", "strategies 2 x y", "strategies 3 u v"]
    for s, row in payoffs.items():
        for (x, u), value in zip(itertools.product("xy", "uv"), row):
            lines.append(f"payoff {s} {x} {u} {value} 0 0")
    path = tmp_path / "grid.game"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_solve_grid_denominator_decides_the_mixed_belief(tmp_path, capsys):
    game = _grid_game(tmp_path)
    for denominator, outcome in (("1", ["a", "b"]), ("2", ["a", "b", "m"])):
        code, out, err = run(capsys, "--format", "json-lines", "solve", game, "--property",
                             "br_l", "--belief-class", "mixed", "--grid-denominator", denominator)
        assert code == 0
        assert json.loads(out)["outcome"][0] == outcome
        assert err == ("warning: with 3 or more players, --belief-class mixed eliminations "
                       "come from a grid search and are not proven\n")


def test_two_player_mixed_beliefs_are_exact_and_not_flagged(capsys):
    code, out, err = run(capsys, "solve", TBT, "--property", "br_l", "--belief-class", "mixed")
    assert (code, err) == (0, "")
    assert out == run(capsys, "solve", TBT, "--property", "br_l",
                      "--belief-class", "correlated")[1]


@pytest.mark.parametrize("denominator", ["0", "-3"])
def test_solve_rejects_a_grid_denominator_below_one(tmp_path, capsys, denominator):
    code, out, err = run(capsys, "solve", _grid_game(tmp_path), "--property", "br_l",
                         "--belief-class", "mixed", "--grid-denominator", denominator)
    assert code == 2
    assert out == ""
    assert err == f"error: grid denominator must be at least 1, got {denominator}\n"


@pytest.mark.parametrize("prop", ["sd_l", "wd_g"])
def test_solve_rejects_a_grid_denominator_below_one_for_every_property(capsys, prop):
    code, out, err = run(capsys, "solve", PD, "--property", prop, "--grid-denominator", "0")
    assert code == 2
    assert out == ""
    assert err == "error: grid denominator must be at least 1, got 0\n"


@pytest.mark.parametrize("argv", [
    ["--property", "sd_l", "--grid-denominator", "3"],
    ["--property", "br_l", "--belief-class", "correlated", "--grid-denominator", "3"],
    # two players: a mixed belief is decided exactly, with no grid
    ["--property", "br_l", "--belief-class", "mixed", "--grid-denominator", "2"],
])
def test_solve_refuses_a_grid_denominator_nothing_reads(capsys, argv):
    code, out, err = run(capsys, "solve", PD, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: --grid-denominator applies to --belief-class mixed "
                   "with 3 or more players\n")


# ---------- announce ----------


def test_announce_game_iterates(capsys):
    code, out, _ = run(capsys, "announce", PD, "--property", "sd_l")
    assert code == 0
    assert "rounds: 1" in out
    assert "terminal restriction: {D} | {D}" in out


def test_announce_rationality(capsys):
    code, out, _ = run(capsys, "announce", PD, "--property", "sd_g", "--rationality")
    assert code == 0
    assert "rounds: 1" in out


def test_announce_emit_model_round_trip(tmp_path, capsys):
    # the game as bundled, and a copy in a directory whose name holds a space
    spaced = tmp_path / "my dir" / "pd.game"
    spaced.parent.mkdir()
    spaced.write_text(Path(PD).read_text())
    for game in (PD, str(spaced)):
        emitted = tmp_path / "terminal.emodel"
        code, _, _ = run(
            capsys, "announce", game, "--property", "sd_l", "--emit-model", str(emitted)
        )
        assert code == 0
        assert emitted.exists()
        # the emitted model must load from its new location
        code, out, _ = run(
            capsys, "eval", str(emitted), "--formula", "nu x. O x", "--property", "sd_l"
        )
        assert code == 0, game
        assert "holds at: D,D" in out
        assert "valid: yes" in out
    # a '#' would cut the game line short, and a leading space would be
    # stripped, so those models are refused unwritten
    for name in ("a#b", " x"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "pd.game").write_text(Path(PD).read_text())
        emitted = tmp_path / "cut.emodel"
        code, out, err = run(
            capsys, "announce", str(tmp_path / name / "pd.game"), "--property", "sd_l",
            "--emit-model", str(emitted),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: a model file cannot name") and err.count("\n") == 1
        assert not emitted.exists()


def test_announce_emit_model_round_trip_with_joined_profile_names(tmp_path, capsys):
    # profiles (a, b,c) and (a,b, c) both join to 'a,b,c'
    game = tmp_path / "comma.game"
    game.write_text(
        "players 2\nstrategies 1 a a,b\nstrategies 2 b,c c\n"
        "payoff a b,c 1 1\npayoff a c 0 0\npayoff a,b b,c 0 0\npayoff a,b c 1 1\n"
    )
    emitted = tmp_path / "m.emodel"
    code, _, _ = run(
        capsys, "announce", str(game), "--property", "sd_l", "--emit-model", str(emitted)
    )
    assert code == 0
    code, out, err = run(
        capsys, "eval", str(emitted), "--formula", "nu x. O(x)", "--property", "sd_l"
    )
    assert (code, err) == (0, "")
    assert "valid: yes" in out


def test_announce_prints_each_warning_as_one_line_on_every_call(capsys):
    want = (
        "warning: property sd_l reads its owner's own component; "
        "the terminal model may not match the elimination outcome\n"
    )
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, "announce", PD, "--property", "sd_l", "--rationality")
        assert (code, err) == (0, want)
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "rounds: 0"


@pytest.mark.parametrize("text", [
    "game {fig2}\nstates w_ul w_dr\n"
    "assign w_ul 1 U\nassign w_ul 2 L\nassign w_dr 1 D\nassign w_dr 2 R\n"
    "P 1 w_ul : w_ul\nP 1 w_dr : w_dr\nP 2 w_ul : w_ul w_dr\nP 2 w_dr : w_ul w_dr\n"
    "states s\n",
    "game {tbt}\nstates a b\nassign a 1 B\nassign a 2 R\nassign b 1 B\nassign b 2 R\n"
    "game {pd}\n",
], ids=["states", "game"])
def test_a_repeated_game_or_states_line_is_one_error_line(tmp_path, capsys, text):
    model = tmp_path / "twice.emodel"
    model.write_text(text.format(fig2=DATA / "fig2.game", tbt=TBT, pd=PD))
    for argv in (["eval", str(model), "--formula", "rat", "--property", "sd_g"],
                 ["announce", str(model), "--property", "sd_l"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: line ") and "given twice" in err and err.count("\n") == 1


def test_announce_events_on_fig2(capsys):
    code, out, _ = run(capsys, "announce", FIG2, "--events", "w_ul|w_dr")
    assert code == 0
    assert "proper: no" in out
    assert "surviving states: (none)" in out
    assert "not a model of the announced restriction" in out


def test_announce_events_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json-lines", "announce", FIG2, "--events", "w_ul|w_dr"
    )
    payload = json.loads(out.strip())
    assert payload["not_a_model_of_announced"] is True
    assert payload["states"] == []
    assert payload["announced_restriction"] == [["U"], ["R"]]


def test_announce_events_read_state_names_that_hold_commas(tmp_path, capsys):
    # a model emitted from pd.game names its states after profiles, 'D,D'
    emitted = tmp_path / "t.emodel"
    code, _, _ = run(capsys, "announce", PD, "--property", "sd_l", "--emit-model", str(emitted))
    assert code == 0
    code, out, err = run(capsys, "announce", str(emitted), "--events", "D,D|D,D")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "proper: yes", "surviving states: D,D", "announced restriction: {D} | {D}"]
    # with states 'x', 'y' and 'x,y' the longest run that names a state wins:
    # 'x,y' is that state, and 'x,y,y' is 'x,y' then 'y'; 'x , y' names no
    # state, so its pieces are the names 'x' and 'y', and an unknown piece
    # is named as before
    model = tmp_path / "commas.emodel"
    model.write_text(
        f"game {PD}\nstates x y x,y\nassign x 1 C\nassign x 2 C\n"
        "assign y 1 D\nassign y 2 D\nassign x,y 1 C\nassign x,y 2 D\n"
    )
    for events, states in (("x,y|x,y", "x,y"), ("x,y,y|y, x,y", "y x,y"),
                           ("x , y|x,y,x", "x")):
        code, out, err = run(capsys, "announce", str(model), "--events", events)
        assert (code, err) == (0, ""), events
        assert f"surviving states: {states}" in out.splitlines(), events
    code, out, err = run(capsys, "announce", str(model), "--events", "x,y,z|x")
    assert (code, out, err) == (2, "", "error: no state named 'z'\n")


def test_announce_model_needs_events_or_property(capsys):
    code, _, err = run(capsys, "announce", FIG2)
    assert code == 2
    assert "--events or --property" in err


def test_announce_event_arity_checked(capsys):
    code, _, err = run(capsys, "announce", FIG2, "--events", "w_ul")
    assert code == 2
    assert "2 event groups" in err


def test_announce_rejects_other_extensions(capsys):
    code, _, err = run(capsys, "announce", DERIV)
    assert code == 2
    assert ".game or .emodel" in err


def test_announce_unknown_state_is_named_without_extra_quotes(capsys):
    code, out, err = run(capsys, "announce", FIG2, "--events", "nope|w_dr")
    assert (code, out, err) == (2, "", "error: no state named 'nope'\n")


def test_announce_events_on_game_rejected(capsys):
    code, _, err = run(capsys, "announce", PD, "--events", "a|b")
    assert code == 2
    assert "model files" in err


@pytest.mark.parametrize("extra", [("--property", "sd_l"), ("--rationality",),
                                   ("--property", "sd_l", "--rationality")])
def test_announce_events_refuse_the_iteration_options(capsys, extra):
    # --events announces one event, which no property or rationality shapes
    code, out, err = run(capsys, "announce", FIG2, "--events", "w_ul|w_dr", *extra)
    assert (code, out) == (2, "")
    assert err == ("error: --events announces one event; --property and --rationality "
                   "apply to iterated announcements\n")


# ---------- eval ----------


def test_eval_requires_property_for_rat(capsys):
    code, _, err = run(capsys, "eval", FIG2, "--formula", "rat")
    assert code == 2
    assert "supply --property" in err


def test_eval_refuses_a_belief_class_without_a_property(capsys):
    # the belief class picks the beliefs of the best response properties
    code, out, err = run(capsys, "eval", FIG2, "--formula", "nu x. x", "--belief-class", "mixed")
    assert (code, out, err) == (2, "", "error: --belief-class applies to --property\n")
    code, out, _ = run(capsys, "eval", FIG2, "--formula", "nu x. O x", "--property", "br_l",
                       "--belief-class", "correlated")
    assert (code, out) == (0, "holds at: w_ul w_dr\nvalid: yes\n")


def test_eval_free_variable_rejected(capsys):
    code, _, err = run(capsys, "eval", FIG2, "--formula", "x", "--property", "sd_l")
    assert code == 2
    assert "free fixpoint variable" in err


def test_eval_box_needs_correspondences(capsys):
    # fig2 is a bare model, so belief talk has nowhere to point
    code, _, err = run(capsys, "eval", FIG2, "--formula", "Box rat", "--property", "sd_l")
    assert code == 2
    assert "correspondences" in err


def _knowledge_model(tmp_path):
    model = tmp_path / "k.emodel"
    model.write_text(
        f"game {PD}\nstates a b\n"
        "assign a 1 C\nassign a 2 C\nassign b 1 D\nassign b 2 D\n"
        "P 1 a : a\nP 1 b : b\nP 2 a : a b\nP 2 b : a b\n",
        encoding="utf-8",
    )
    return str(model)


@pytest.mark.parametrize("formula, named", [("Box_9(rat)", 9), ("rat_3", 3), ("O_5(rat)", 5)])
def test_eval_refuses_a_player_the_game_does_not_have(capsys, tmp_path, formula, named):
    model = _knowledge_model(tmp_path)
    code, out, err = run(capsys, "eval", model, "--formula", formula, "--property", "sd_g")
    assert (code, out, err) == (2, "", f"error: formula names player {named}; the game has 2\n")


@pytest.mark.parametrize("formula", ["CB(x)", "CB(rat & x)"])
def test_eval_refuses_common_belief_of_a_free_x(capsys, tmp_path, formula):
    model = _knowledge_model(tmp_path)
    code, out, err = run(capsys, "eval", model, "--formula", formula, "--property", "sd_g")
    assert (code, out) == (2, "")
    assert "free x" in err


@pytest.mark.parametrize("formula", ["CB(nu x. Box(x & rat))", "CB(CB(rat))"])
def test_eval_refuses_a_fixpoint_inside_common_belief(capsys, tmp_path, formula):
    model = _knowledge_model(tmp_path)
    code, out, err = run(capsys, "eval", model, "--formula", formula, "--property", "sd_g")
    assert (code, out) == (2, "")
    assert "nested fixpoints are not allowed" in err


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", FIG2, "--formula", "rat &")
    assert code == 2
    assert "error:" in err


def test_eval_formula_nested_past_the_recursion_limit(capsys):
    formula = "!" * 3000 + "rat"
    code, _, err = run(capsys, "eval", FIG2, "--formula", formula, "--property", "sd_l")
    assert code == 2
    assert err.startswith("error:")


def test_eval_json(capsys):
    # all payoffs tie in fig2, so weak dominance never bites and every state survives
    code, out, _ = run(
        capsys,
        "--format",
        "json-lines",
        "eval",
        FIG2,
        "--formula",
        "nu x. O x",
        "--property",
        "wd_l",
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["valid"] is True
    assert payload["holds_at"] == ["w_ul", "w_dr"]


# ---------- check ----------


def test_check_single_check(capsys):
    code, out, err = run(capsys, "check", "derivation_valid", "--random", "2")
    assert code == 0
    assert "PASS derivation_valid" in out
    assert "1 checks: 1 passed, 0 failed" in out
    assert "elapsed:" in err


def test_check_games_wider_than_ten_strategies(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "epist1_witness",
        "--random",
        "30",
        "--max-strategies",
        "12",
        "--budget-restrictions",
        "24",
        "--max-players",
        "2",
        "--property",
        "sd_g",
    )
    assert code in (0, 1)
    assert "epist1_witness (" in out


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "mystery")
    assert code == 2
    assert err == (
        "error: unknown suite or check 'mystery'; "
        "suites: epist1, epist2, just, just1, notes, logic, announce, all\n"
    )


def test_check_property_pool_enforced(capsys):
    code, _, err = run(capsys, "check", "epist1", "--property", "wd_g")
    assert code == 2
    assert err == "error: check epist1_belief only accepts properties from: sd_g, msd_g, br_g\n"
    code, _, err = run(capsys, "check", "epist1", "--property", "zzz")
    assert code == 2
    assert "unknown property" in err


@pytest.mark.parametrize("suite, prop", [("just_chain", "msd_l"), ("just1", "sd_g")])
def test_check_refuses_a_property_no_selected_check_draws(capsys, suite, prop):
    code, out, err = run(capsys, "check", suite, "--property", prop, "--random", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {suite} draws no properties; checks that do: epist1_belief,")


def test_check_rejects_a_negative_instance_count(capsys):
    code, out, err = run(capsys, "check", "epist1_belief", "--random", "-1")
    assert code == 2
    assert out == ""
    assert "count must be at least 0" in err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_check_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "check", "derivation_valid", "--random", "2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def _check_size_option(capsys, option, value, smallest):
    code, _, err = run(capsys, "check", "epist1_belief", "--random", "2", option, value)
    assert code == 2
    assert f"{option[2:].replace('-', '_')} must be at least {smallest}" in err
    assert "randrange" not in err


def test_check_rejects_max_players_below_two(capsys):
    _check_size_option(capsys, "--max-players", "1", 2)


def test_check_rejects_max_strategies_below_one(capsys):
    _check_size_option(capsys, "--max-strategies", "0", 1)


def test_check_rejects_max_states_below_one(capsys):
    _check_size_option(capsys, "--max-states", "0", 1)


def test_check_runs_at_the_smallest_sizes(capsys):
    code, out, _ = run(
        capsys, "check", "all", "--random", "1",
        "--max-players", "2", "--max-strategies", "1", "--max-states", "1",
    )
    assert code == 0
    assert "25 checks: 25 passed, 0 failed" in out


def test_check_json_lines(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json-lines",
        "check",
        "derivation_valid",
        "--random",
        "1",
    )
    assert code == 0
    payload = json.loads(out.strip().splitlines()[0])
    assert payload["name"] == "derivation_valid"
    assert payload["passed"] is True


# ---------- derive ----------


def test_derive_valid_file(capsys):
    code, out, _ = run(capsys, "derive", DERIV)
    assert code == 0
    assert out.strip().splitlines()[-1] == "Valid"
    assert "step 1 ok:" in out


def test_derive_prints_formulas_that_parse_back(capsys):
    code, out, _ = run(capsys, "derive", DERIV)
    assert code == 0
    steps = check_derivation(parse_derivation(Path(DERIV).read_text(encoding="utf-8"))).steps
    printed = [line.split(" ok: ", 1)[1] for line in out.splitlines()[:-1]]
    assert [parse_lnu(text) for text in printed] == [step.formula for step in steps]


def test_derive_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.deriv"
    bad.write_text("axiom nuDis psi=!x\n")
    code, out, _ = run(capsys, "derive", str(bad))
    assert code == 1
    assert out.strip().splitlines()[-1] == "Invalid"
    assert "FAILED" in out


def test_derive_refuses_common_belief_of_a_free_x(tmp_path, capsys):
    bad = tmp_path / "cbx.deriv"
    bad.write_text("axiom ratDis psi=CB(x)\n")
    code, out, err = run(capsys, "derive", str(bad))
    assert (code, out) == (2, "")
    assert "free x" in err


def test_derive_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.deriv"
    bad.write_text("lemma huh\n")
    code, _, err = run(capsys, "derive", str(bad))
    assert code == 2
    assert "unrecognized step" in err


def _recorded_script(dist, target):
    """The `epigame` script that an installed distribution recorded."""
    where = dist.locate_file("")
    entries = [
        ep.value
        for ep in dist.entry_points
        if ep.group == "console_scripts" and ep.name == "epigame"
    ]
    assert entries == [target], (
        f"installed epigame at {where} has console script {entries}, "
        f"pyproject.toml declares {target!r}"
    )
    scripts = [
        f.locate()
        for f in dist.files or ()
        if f.name == "epigame" and f.parent.name == "bin"
    ]
    assert scripts, f"installed epigame at {where} recorded no `epigame` script"
    return scripts[0]


def test_console_script_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["epigame"]
    env = None
    try:
        dist = importlib.metadata.distribution("epigame")
    except importlib.metadata.PackageNotFoundError:
        # no install: the launcher that installers write, run against src/
        module, _, attr = target.partition(":")
        launcher = tmp_path / "epigame"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    else:
        launcher = _recorded_script(dist, target)
    proc = subprocess.run(
        [str(launcher), "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, (
        f"{launcher} --help exited {proc.returncode}; stderr:\n{proc.stderr}"
    )
    for command in ("solve", "announce", "eval", "check", "derive"):
        assert command in proc.stdout, (
            f"{launcher} --help does not list {command!r}; stderr:\n{proc.stderr}"
        )


def test_python_m_epigame_runs_the_command_line():
    proc = _fresh_python("-m", "epigame", "--help")
    assert proc.returncode == 0, f"stderr:\n{proc.stderr}"
    for command in ("solve", "announce", "eval", "check", "derive"):
        assert command in proc.stdout


# ---------- start-up ----------
# The suite has imported every module before these run, so only a new
# interpreter shows what a command loads and whether a handler forgot one.

MODULES = sorted(p.stem for p in (ROOT / "src" / "epigame").glob("*.py")
                 if not p.stem.startswith("__"))

_STARTUP = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("epigame."))
import epigame
report = {"after_import": loaded()}
import epigame.cli
with contextlib.redirect_stdout(io.StringIO()):
    report["solve_code"] = epigame.cli.main(["solve", %r])
report["after_solve"] = loaded()
report["unresolved"] = [n for n in epigame.__all__ + %r if not hasattr(epigame, n)]
try:
    epigame.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
report["dir_misses"] = sorted(set(epigame.__all__) - set(dir(epigame)))
print(json.dumps(report))
"""


def test_import_loads_no_module_and_solve_loads_only_the_solver():
    proc = _fresh_python("-c", _STARTUP % (PD, MODULES))
    assert proc.returncode == 0, f"stderr:\n{proc.stderr}"
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["solve_code"] == 0
    assert report["after_solve"] == [
        "epigame.cli", "epigame.dominance", "epigame.games", "epigame.lp",
        "epigame.operators", "epigame.optimality",
    ]
    assert report["unresolved"] == []
    assert report["unknown"] == "module 'epigame' has no attribute 'no_such_name'"
    assert report["dir_misses"] == []


@pytest.mark.parametrize("argv", [
    ["solve", PD],
    ["--format", "json-lines", "solve", TBT, "--property", "msd_l"],
    ["announce", PD, "--rationality", "--emit-model", "{out}"],
    ["announce", FIG2, "--events", "w_ul|w_dr", "--emit-model", "{out}"],
    ["eval", FIG2, "--formula", "rat & CB(rat)", "--property", "sd_l"],
    ["check", "derivation_valid", "--random", "1"],
    ["derive", DERIV],
])
def test_each_command_runs_alone_in_a_new_interpreter(tmp_path, capsys, argv):
    """Same stdout, exit code and emitted model as in-process, where every
    module is already loaded."""
    fresh, in_process = tmp_path / "fresh.emodel", tmp_path / "in_process.emodel"
    proc = _fresh_python("-m", "epigame", *(arg.format(out=fresh) for arg in argv))
    code, out, _ = run(capsys, *(arg.format(out=in_process) for arg in argv))
    assert (proc.returncode, proc.stdout) == (code, out)
    if "{out}" in argv:
        assert fresh.read_text(encoding="utf-8") == in_process.read_text(encoding="utf-8")
