"""Malformed input to every parser raises that parser's format error and
nothing else, so the command line can map it to exit code 2.

Inputs are valid texts with a few random edits (dropped, copied or inserted
lines, replaced, deleted or spliced tokens), so that most examples get past the first
keyword check and reach the deeper branches of each parser.
"""

from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from epigame.checks import BUNDLED_DERIVATION
from epigame import games
from epigame.epistemic import ModelFormatError, parse_model
from epigame.games import Game, GameFormatError, load_game
from epigame.logic import (
    LO_TEXTS,
    DerivationFormatError,
    LogicParseError,
    parse_derivation,
    parse_lnu,
    parse_lo,
)

DATA = Path(__file__).resolve().parents[1] / "data"

FUZZ = settings(derandomize=True, max_examples=500, deadline=None)

_NOISE = st.text(alphabet="ab19-/:#.,|&!()_^=> ", min_size=1, max_size=4)


_EDITS = ("drop", "copy", "insert", "replace", "delete", "splice")


@st.composite
def _edited(draw, lines, words):
    """Lines of tokens after up to five random edits."""
    lines = [line.split() for line in lines]
    word = st.one_of(st.sampled_from(words), _NOISE)
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(_EDITS))
        k = draw(st.integers(0, len(lines)))
        if op == "insert" or k == len(lines):
            lines.insert(k, draw(st.lists(word, max_size=6)))
            continue
        toks = lines[k]
        if op == "drop":
            del lines[k]
        elif op == "copy":
            lines.insert(draw(st.integers(0, len(lines))), list(toks))
        elif op == "replace" and toks:
            toks[draw(st.integers(0, len(toks) - 1))] = draw(word)
        elif op == "delete" and toks:
            del toks[draw(st.integers(0, len(toks) - 1))]
        elif op == "splice" and toks:
            a = draw(st.integers(0, len(toks) - 1))
            b = draw(st.integers(a, len(toks)))
            at = draw(st.integers(0, len(toks)))
            toks[at:at] = toks[a:b]
    return "\n".join(" ".join(toks) for toks in lines)


def _text(text):
    return [line for line in text.splitlines() if line.strip()]


_GAME = _text((DATA / "threebytwo.game").read_text(encoding="utf-8"))
_GAME_WORDS = (
    "players", "strategies", "payoff", "1", "2", "3", "0", "-1", "T", "M",
    "B", "L", "R", "1/2", "1/0", "#",
)
# The game line stays fixed: a missing game file is not a format error.
_MODEL = _text(
    """states w_ul w_dr
assign w_ul 1 U
assign w_ul 2 L
assign w_dr 1 D
assign w_dr 2 R
P 1 w_ul : w_ul
P 1 w_dr : w_dr
P 2 w_ul : w_ul w_dr
P 2 w_dr : w_ul w_dr
level belief"""
)
_MODEL_WORDS = (
    "states", "assign", "P", "level", ":", "w_ul", "w_dr", "1", "2", "3", "0",
    "U", "D", "L", "R", "bare", "belief", "knowledge", "#",
)
_DERIVATION = _text(BUNDLED_DERIVATION)
_DERIVATION_WORDS = (
    "axiom", "ratDis", "nuDis", "prop", "nuInd", "psi=rat", "psi=O", "from=1",
    "from=3", "from=1,2", "conclude=rat", "chi=rat", "rat", "x", "&", "->", "(",
    ")",
)
# Formulas as space-separated tokens; further lines are whitespace to them.
_LNU = ["rat & CB ( rat ) -> nu x . Box_1 ( x & ! rat_2 ) & O x"]
_LNU_WORDS = (
    "rat", "rat_1", "rat_3", "Box", "Box_2", "O", "O_1", "CB", "CB_1", "nu",
    "x", "x_1", ".", "(", ")", "&", "!", "->", "zz",
)
_LO = [LO_TEXTS["wd_g"].format(p=1)]
_LO_WORDS = (
    "exists", "forall", "in", "X", "x", "y", "z", ">=^1_z", ">^2_y", ">=^0_z",
    "|", "&", "!", "(", ")", "->",
)


@FUZZ
@given(_edited(_GAME, _GAME_WORDS))
def test_load_game_raises_only_its_format_error(text):
    try:
        load_game(text)
    except GameFormatError:
        pass


def _game_outcome(parse):
    """What a game parse gives: its error's text and line, or the game."""
    try:
        game = parse()
    except GameFormatError as err:
        return "error", str(err), err.line
    return game.strategy_names, game.table, game.kernel


# Other spellings of the values in the game, and of values it lacks
_SPELLINGS = ("2/4", "1/2", "+3", "3", "-0", "007", "6/2", "-3/6", "+0/5")


@st.composite
def _respelled_games(draw):
    """The game with its payoff lines in a drawn order, some values spelled
    otherwise and maybe one strategy renamed to another of its player's
    (a repeated profile unless unchanged), then edited."""
    head = [line for line in _GAME if not line.startswith("payoff")]
    body = [line.split() for line in _GAME if line.startswith("payoff")]
    if draw(st.integers(0, 3)) == 0:
        names = [line.split()[2:] for line in head if line.startswith("strategies")]
        j = draw(st.integers(0, len(names) - 1))
        draw(st.sampled_from(body))[1 + j] = draw(st.sampled_from(names[j]))
    for toks in draw(st.permutations(body)):
        for k in range(len(toks) - 2, len(toks)):
            toks[k] = draw(st.sampled_from((toks[k],) + _SPELLINGS))
        head.append(" ".join(toks))
    return draw(_edited(head, _GAME_WORDS + _SPELLINGS))


@FUZZ
@given(st.one_of(_edited(_GAME, _GAME_WORDS), _respelled_games()))
def test_load_game_agrees_with_its_line_loop(text):
    """The column reader declines what it cannot read; load_game then gives
    the line loop's answer, so every game and error message is the loop's.
    A game the reader builds from its kernel has the loop's table."""
    def loop():
        names, index, _, lines = games._game_header(text)
        return Game(names, games._payoff_lines(lines, names, index))

    assert _game_outcome(lambda: load_game(text)) == _game_outcome(loop)


@FUZZ
@given(_edited(_MODEL, _MODEL_WORDS))
@example("\n".join(_MODEL[:-1] + ["states s"]))  # a second 'states' line after P lines
def test_parse_model_raises_only_its_format_error(text):
    try:
        parse_model("game fig2.game\n" + text, base_dir=str(DATA))
    except ModelFormatError:
        pass


def _model_outcome(text):
    """What a model parse gives: its error's text and line, or the model."""
    try:
        loaded = parse_model(text, base_dir=str(DATA))
    except ModelFormatError as err:
        return "error", str(err), err.line
    model = loaded.model
    return (
        loaded.level, loaded.game_path, model.state_names, model.assignment,
        model.correspondences,
    )


@FUZZ
@given(_edited(_MODEL, _MODEL_WORDS))
def test_parse_model_agrees_with_its_line_loop(text):
    """parse_model reads one line at a time: the same lines with CRLF endings,
    tabs between tokens and a comment after each give the same model, or the
    same error at the same line."""
    text = "game fig2.game\n" + text
    respelled = "".join(
        "\t".join(line.split(" ")) + "\t# note\r\n" for line in text.split("\n")
    )
    assert _model_outcome(respelled) == _model_outcome(text)


@FUZZ
@given(_edited(_DERIVATION, _DERIVATION_WORDS))
def test_parse_derivation_raises_only_its_format_error(text):
    try:
        parse_derivation(text)
    except DerivationFormatError:
        pass


@FUZZ
@given(_edited(_LNU, _LNU_WORDS))
def test_parse_lnu_raises_only_its_format_error(text):
    try:
        parse_lnu(text)
    except LogicParseError:
        pass


@FUZZ
@given(_edited(_LO, _LO_WORDS))
def test_parse_lo_raises_only_its_format_error(text):
    try:
        parse_lo(text)
    except LogicParseError:
        pass
