"""Game files, the restriction lattice, and mixed strategies."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from epigame import games
from epigame.cli import main
from epigame.games import (
    BudgetExceededError,
    Game,
    GameFormatError,
    MixedStrategy,
    Restriction,
    all_restrictions,
    full_profile,
    game_to_text,
    load_game,
    load_game_file,
    parse_rational,
    point_mass,
    restriction_join,
    restriction_leq,
    restriction_meet,
    subsets_of,
)

DATA = Path(__file__).resolve().parents[1] / "data"

PD = load_game_file(DATA / "pd.game")


# ---------- parsing ----------


def test_load_pd():
    assert PD.n == 2
    assert PD.strategy_names == (("C", "D"), ("C", "D"))
    assert PD.payoffs((0, 0)) == (Fraction(3), Fraction(3))
    assert PD.payoffs((0, 1)) == (Fraction(0), Fraction(5))
    assert PD.payoff(1, (1, 0)) == Fraction(0)


def test_load_game_comments_and_fractions():
    game = load_game(
        """
        # a one-shot coordination game with fractional payoffs
        players 2
        strategies 1 a b   # player 1
        strategies 2 c d
        payoff a c 1/2 1/2
        payoff a d 0 0
        payoff b c 0 0
        payoff b d -3/4 2
        """
    )
    assert game.payoffs((0, 0)) == (Fraction(1, 2), Fraction(1, 2))
    assert game.payoff(0, (1, 1)) == Fraction(-3, 4)


def test_round_trip_through_text():
    game = load_game(game_to_text(PD))
    assert game.strategy_names == PD.strategy_names
    assert game.table == PD.table


@pytest.mark.parametrize("names, bad", [
    ((("a#b", "c"), ("x y", "z")), "player 1's strategy name 'a#b'"),
    ((("a", "c"), ("x y", "z")), "player 2's strategy name 'x y'"),
    ((("a", ""), ("x", "z")), "player 1's strategy name ''"),
    ((("a", "c"), ("z", "z")), "player 2's strategy name 'z'"),
])
def test_game_to_text_refuses_names_load_game_cannot_read(names, bad):
    table = {p: (Fraction(0), Fraction(0)) for p in itertools.product(range(2), repeat=2)}
    with pytest.raises(ValueError) as info:
        game_to_text(Game(names, table))
    assert str(info.value).startswith(f"a file cannot hold {bad}: ")


def test_parse_rational():
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-3") == Fraction(-3)
    with pytest.raises(GameFormatError):
        parse_rational("0.5")
    with pytest.raises(GameFormatError):
        parse_rational("1/0")
    # digits of other scripts are refused, in the numerator as in the denominator
    for bad in ("\u0663", "1/\u0662"):
        with pytest.raises(GameFormatError):
            parse_rational(bad)
        err = _bad(f"players 2\nstrategies 1 a\nstrategies 2 x\npayoff a x {bad} 1\n")
        assert (str(err), err.line) == (f"line 4: not an integer or p/q rational: {bad!r}", 4)


def test_index_by_name():
    assert PD.index(0, "D") == 1
    with pytest.raises(KeyError):
        PD.index(1, "E")


# ---------- format errors carry line numbers ----------


def _bad(text):
    with pytest.raises(GameFormatError) as info:
        load_game(text)
    return info.value


def test_error_empty_file():
    err = _bad("# only a comment\n")
    assert "empty" in str(err)


def test_error_missing_players_line():
    err = _bad("strategies 1 a b\n")
    assert err.line == 1


def test_error_single_player():
    err = _bad("players 1\nstrategies 1 a b\n")
    assert "two players" in str(err)


def test_error_wrong_strategies_player():
    err = _bad("players 2\nstrategies 2 a b\n")
    assert err.line == 2
    assert "player 1" in str(err)


def test_error_duplicate_strategy_name():
    err = _bad("players 2\nstrategies 1 a a\n")
    assert "duplicate strategy" in str(err)


def test_error_bad_payoff_token():
    err = _bad(
        "players 2\nstrategies 1 a\nstrategies 2 c\npayoff a c 1 0.5\n"
    )
    assert err.line == 4
    assert str(err).startswith("line 4:")


def test_error_unknown_strategy_in_payoff():
    err = _bad("players 2\nstrategies 1 a\nstrategies 2 c\npayoff a z 0 0\n")
    assert "unknown strategy 'z'" in str(err)


def test_error_duplicate_payoff_line():
    err = _bad(
        "players 2\nstrategies 1 a\nstrategies 2 c\n"
        "payoff a c 0 0\npayoff a c 1 1\n"
    )
    assert err.line == 5
    assert "first given on line 4" in str(err)


def test_error_missing_profile():
    err = _bad("players 2\nstrategies 1 a b\nstrategies 2 c\npayoff a c 0 0\n")
    assert "missing payoff for profile b c" in str(err)


def test_error_payoff_arity():
    err = _bad("players 2\nstrategies 1 a\nstrategies 2 c\npayoff a c 0\n")
    assert "2 strategies and 2 values" in str(err)


# ---------- payoff-block errors: exact messages and line numbers ----------

_HEAD = ["players 2", "strategies 1 a b", "strategies 2 x y"]
_BODY = ["payoff a x 1 2", "payoff a y 3 4", "payoff b x 5 6", "payoff b y 7 8"]


def _with_line(k, line):
    """The 2x2 game with payoff line k (0-based; file line 4 + k) replaced."""
    body = list(_BODY)
    body[k] = line
    return "\n".join(_HEAD + body) + "\n"


@pytest.mark.parametrize("k, line, line_no, message", [
    (1, "pay a y 3 4", 5, "unexpected directive 'pay'"),
    (1, "payoff a y 3", 5, "payoff line needs 2 strategies and 2 values"),
    (3, "payoff b y 7 8 9", 7, "payoff line needs 2 strategies and 2 values"),
    (2, "payoff c x 5 6", 6, "unknown strategy 'c' for player 1"),
    (2, "payoff b z 5 6", 6, "unknown strategy 'z' for player 2"),
    (3, "payoff a y 7 8", 7, "duplicate payoff for profile a y (first given on line 5)"),
    (0, "payoff a x 0.5 2", 4, "not an integer or p/q rational: '0.5'"),
    (0, "payoff a x 1 1/0", 4, "not an integer or p/q rational: '1/0'"),
    (3, "payoff b y 1_0 8", 7, "not an integer or p/q rational: '1_0'"),
])
def test_payoff_block_errors_name_the_faulty_line(k, line, line_no, message):
    err = _bad(_with_line(k, line))
    assert str(err) == f"line {line_no}: {message}"
    assert err.line == line_no


def test_missing_profile_is_named_without_a_line():
    err = _bad("\n".join(_HEAD + _BODY[:2] + _BODY[3:]) + "\n")
    assert str(err) == "missing payoff for profile b x"
    assert err.line is None


def test_the_earlier_of_two_faulty_lines_is_named():
    body = ["payoff a x 1 2", "payoff a q 3 4", "payoff b x 0.5 6", "payoff b y 7 8"]
    err = _bad("\n".join(_HEAD + body) + "\n")
    assert (str(err), err.line) == ("line 5: unknown strategy 'q' for player 2", 5)
    body = ["payoff a x 1 2", "payoff a y 3 4", "payoff b x 0.5 6", "oops b y 7 8"]
    err = _bad("\n".join(_HEAD + body) + "\n")
    assert (str(err), err.line) == ("line 6: not an integer or p/q rational: '0.5'", 6)
    # a duplicate before a missing profile: the duplicate is named
    body = ["payoff a x 1 2", "payoff a x 3 4", "payoff b x 5 6", "payoff b y 7 8"]
    err = _bad("\n".join(_HEAD + body) + "\n")
    assert err.line == 5 and "first given on line 4" in str(err)


def test_comments_blank_lines_and_crlf_keep_line_numbers():
    lines = [
        "# a 2x2 game",                 # 1
        "",                             # 2
        "players 2   # two of them",    # 3
        "strategies 1 a b",             # 4
        "   ",                          # 5
        "strategies 2 x y",             # 6
        "payoff a x 1 2",               # 7
        "# payoff a y 3 4 is below",    # 8
        "",                             # 9
        "payoff a y 3 4 # fine",        # 10
        "payoff b x 5 six",             # 11
        "payoff b y 7 8",               # 12
    ]
    for end in ("\n", "\r\n"):
        err = _bad(end.join(lines) + end)
        assert (str(err), err.line) == ("line 11: not an integer or p/q rational: 'six'", 11)
        fixed = list(lines)
        fixed[10] = "payoff b x 5 6"
        fixed[11] = "payoff b z 7 8 # unknown"
        err = _bad(end.join(fixed) + end)
        assert (str(err), err.line) == ("line 12: unknown strategy 'z' for player 2", 12)


# ---------- loaded games do not depend on the layout of the text ----------


def _game_texts(rng, names):
    """One game written three times: in profile order with plain tokens; in
    profile order with comments, tabs, blank lines, CRLF and other spellings
    of each value; and like the second, with the payoff lines shuffled."""
    values = {}
    for profile in itertools.product(*map(range, map(len, names))):
        values[profile] = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
                           for _ in names]
    head = [f"players {len(names)}"] + [
        f"strategies {i + 1} " + " ".join(part) for i, part in enumerate(names)]

    def cells(profile):
        return [names[i][s] for i, s in enumerate(profile)]

    ordered = head + [
        "payoff " + " ".join(cells(p) + [str(v) for v in vals]) for p, vals in values.items()]

    def spelled(v):
        k = rng.randint(1, 3)
        sign = "+" if v >= 0 and rng.random() < 0.5 else ""
        if v.denominator == 1 and rng.random() < 0.5:
            return f"{sign}{v.numerator}"
        return f"{sign}{v.numerator * k}/{v.denominator * k}"

    body = ["payoff\t" + "\t ".join(cells(p) + [spelled(v) for v in vals])
            + (" # a note" if rng.random() < 0.3 else "")
            for p, vals in values.items()]
    shuffled = list(body)
    while shuffled == body:  # any other order leaves profile order
        rng.shuffle(shuffled)

    def decorated(lines):
        lines = list(lines)
        for _ in range(4):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "   ", "# a comment")))
        return "\r\n".join(["# a game", *head, "", *lines]) + "\r\n"

    return "\n".join(ordered) + "\n", decorated(body), decorated(shuffled)


def test_loaded_game_is_independent_of_the_layout(monkeypatch):
    """A block in profile order, however it is spelled, is read by the
    column reader alone; a shuffled block goes to the line loop, and both
    give the same game."""
    looped = []
    loop = games._payoff_lines

    def spy(lines, names, index):
        looped.append(names)
        return loop(lines, names, index)

    monkeypatch.setattr(games, "_payoff_lines", spy)
    rng = random.Random(2909)
    for names in (
        (("payoff", "b", "c"), ("x", "y")),
        (("a", "b"), ("payoff", "y", "z", "w")),
        (("a", "b"), ("x", "payoff"), ("u", "v", "w")),
    ):
        ordered, spelled, shuffled = _game_texts(rng, names)
        want, respelled = load_game(ordered), load_game(spelled)
        assert looped == []
        got = load_game(shuffled)
        assert looped == [names]
        looped.clear()
        for game in (respelled, got):
            assert want.strategy_names == game.strategy_names == names
            assert want.table == game.table
            assert want.kernel == game.kernel
            assert game_to_text(game) == game_to_text(want)
        # a game built in code, with one Fraction object per cell, has the
        # same kernel as the parsed one, which shares one per token
        fresh = {p: tuple(Fraction(v.numerator, v.denominator) for v in vals)
                 for p, vals in want.table.items()}
        assert Game(names, fresh).kernel == want.kernel
        assert load_game(game_to_text(got)).table == want.table
        assert looped == []


def test_a_loaded_game_builds_its_table_only_when_asked(tmp_path, monkeypatch, capsys):
    """A loaded game is its kernel: no solve builds the Fraction table, and
    the table it builds when asked is the line loop's."""
    # B is a best response to no pure belief, but to the half-half one,
    # which the LP finds and re-checks on the kernel rows; W is dominated by
    # the half-half mixture of T and M alone, which the LP's ray gives
    hedge = tmp_path / "hedge.game"
    hedge.write_text("players 2\nstrategies 1 T M B W\nstrategies 2 L R\n"
                     "payoff T L 3 0\npayoff T R 0 0\npayoff M L 0 0\npayoff M R 3 0\n"
                     "payoff B L 2 0\npayoff B R 2 0\npayoff W L 1 0\npayoff W R 1 0\n",
                     encoding="utf-8")
    # m is a best response to no pure belief and to the correlated half-half
    # one; with three players the cells decide the mixed class on int rows
    grid = tmp_path / "grid.game"
    lines = ["players 3", "strategies 1 a b m", "strategies 2 x y", "strategies 3 u v"]
    for s, row in {"a": (3, 3, 0, 0), "b": (0, 0, 3, 3), "m": (2, 2, 2, 2)}.items():
        for (x, u), value in zip(itertools.product("xy", "uv"), row):
            lines.append(f"payoff {s} {x} {u} {value} 0 0")
    grid.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = []

    def spy(game_path):
        loaded.append(load_game_file(game_path))
        return loaded[-1]

    monkeypatch.setattr(games, "load_game_file", spy)
    for path, args, builds in (
        (hedge, ["sd_l"], False), (hedge, ["wd_l"], False), (hedge, ["br_l"], False),
        (hedge, ["msd_l"], False), (hedge, ["mwd_l"], False), (hedge, ["brc_l"], False),
        (hedge, ["br_l", "--belief-class", "correlated"], False),
        (grid, ["br_l", "--belief-class", "mixed"], False),
    ):
        assert main(["solve", str(path), "--property", *args]) == 0
        assert ("table" in vars(loaded[-1])) == builds, args
    capsys.readouterr()
    for path in sorted(DATA.glob("*.game")):
        text = path.read_text(encoding="utf-8")
        names, index, _, lines = games._game_header(text)
        want = Game(names, games._payoff_lines(lines, names, index))
        got = load_game(text)
        assert got.kernel == want.kernel
        assert got.table == want.table
        assert game_to_text(got) == game_to_text(want)


# ---------- restrictions ----------


def test_restriction_basics():
    G = PD.restriction([["C"], ["C", "D"]])
    assert G.sets == (frozenset([0]), frozenset([0, 1]))
    assert not G.is_empty()
    assert not G.is_full()
    assert G.describe() == "{C} | {C,D}"
    assert G.contains_profile((0, 1))
    assert not G.contains_profile((1, 1))
    assert list(G.opponent_profiles(0)) == [(0,), (1,)]
    assert list(G.opponent_profiles(1)) == [(0,)]


def test_restriction_validation():
    with pytest.raises(ValueError):
        Restriction(PD, (frozenset([0]),))
    with pytest.raises(ValueError):
        Restriction(PD, (frozenset([5]), frozenset()))
    # the first bad index, part by part, is the one named
    with pytest.raises(ValueError, match="^strategy index 7 out of range for player 2$"):
        Restriction(PD, (frozenset([0, 1]), frozenset([1, 7])))
    with pytest.raises(ValueError, match="^strategy index -1 out of range for player 1$"):
        Restriction(PD, (frozenset([-1]), frozenset([9])))
    # parts that cannot key the game's cuts are refused, not failed on later
    for bad in (({0}, {1}), (frozenset([0]), {1}), [frozenset([0]), frozenset([1])],
                ([0], frozenset([1]))):
        with pytest.raises(ValueError, match="^restriction parts must be a tuple of frozensets$"):
            Restriction(PD, bad)
    assert PD.restriction([{0}, [1]]).sets == (frozenset([0]), frozenset([1]))


def _three_player_game():
    """A 2x2x2 game with distinct payoffs, so every cut row differs."""
    text = "players 3\nstrategies 1 a b\nstrategies 2 c d\nstrategies 3 e f\n"
    for k, profile in enumerate(itertools.product("ab", "cd", "ef")):
        text += f"payoff {' '.join(profile)} {k} {2 * k - 7} {k * k % 5}\n"
    return load_game(text)


def test_restrictions_with_equal_opponents_sets_share_their_cut_rows():
    """The game keeps one cut per (player, opponents' sets): restrictions that
    differ only in the player's own part hand out the same object, whether
    or not their sets are the same frozenset objects, and restrictions whose
    opponents' parts differ hand out different ones."""
    game = _three_player_game()
    lattice = list(all_restrictions(game))
    for i in range(game.n):
        cut_of = {}  # opponents' sets -> the cut handed out
        for G in lattice:
            others = G.sets[:i] + G.sets[i + 1 :]
            cut = cut_of.setdefault(others, G.rows(i))
            assert G.rows(i) is cut
            rebuilt = Restriction(game, tuple(frozenset(part) for part in G.sets))
            assert rebuilt.rows(i) is cut
        assert len(cut_of) == 4 ** (game.n - 1)
        assert len({id(cut) for cut in cut_of.values()}) == len(cut_of)
    full = game.full_restriction()
    assert full.rows(0) is not full.rows(1)
    # with every opponent part full the rows are the kernel rows themselves
    for i in range(game.n):
        sets = tuple(frozenset() if j == i else part for j, part in enumerate(full.sets))
        G = Restriction(game, sets)
        assert all(G.rows(i)[s] is game.kernel[i][s] for s in game.strategies(i))
    G = game.restriction([["a"], ["c"], ["e", "f"]])
    assert G.rows(0)[1] == (game.kernel[0][1][0], game.kernel[0][1][1])


def _reference_rows(G, i):
    """Player i's kernel rows at G, gathered one flat index at a time."""
    game = G.game
    opponents = [j for j in range(game.n) if j != i]
    flat = []
    for ctx in G.opponent_profiles(i):
        k = 0
        for j, s in zip(opponents, ctx):
            k = k * game.strategy_count(j) + s
        flat.append(k)
    return [tuple(game.kernel[i][s][k] for k in flat) for s in game.strategies(i)]


@pytest.mark.parametrize("sizes", [(3, 4), (2, 3, 2)])
def test_cut_rows_gather_the_opponent_profiles_of_each_restriction(sizes):
    """On every restriction, each cut row is the kernel row read at the
    flat index of each opponent profile, as a tuple: also with an empty
    opponent part (no context) and one-element parts (one context)."""
    rng = random.Random(sum(sizes))
    names = tuple(tuple(f"s{k}" for k in range(size)) for size in sizes)
    count = math.prod(sizes)
    game = Game.from_columns(
        names, [[rng.randint(-9, 9) for _ in range(count)] for _ in sizes], [1] * len(sizes))
    contexts = set()
    for G in all_restrictions(game):
        for i in range(game.n):
            cut, want = G.rows(i), _reference_rows(G, i)
            assert [cut[s] for s in game.strategies(i)] == want
            for s in game.strategies(i):
                assert type(cut[s]) is tuple
                assert len(cut[s]) == len(list(G.opponent_profiles(i)))
            contexts.add(len(want[0]))
    assert {0, 1} <= contexts
    # a one-context cut: its column maxima are 1-tuples
    G = game.restriction([{0}] * game.n)
    cut = G.rows(0)
    column = [game.kernel[0][s][0] for s in game.strategies(0)]
    assert cut.column_max(frozenset({1})) == (column[1],)
    assert cut.column_max(frozenset(game.strategies(0))) == (max(column),)


def test_empty_and_full():
    assert PD.empty_restriction().is_empty()
    assert PD.full_restriction().is_full()
    # one empty component is enough to make the restriction empty
    assert Restriction(PD, (frozenset([0]), frozenset())).is_empty()


def test_full_profile_insertion():
    assert full_profile(0, 9, (1, 2)) == (9, 1, 2)
    assert full_profile(1, 9, (1, 2)) == (1, 9, 2)
    assert full_profile(2, 9, (1, 2)) == (1, 2, 9)


def test_meet_join_against_different_games():
    other = load_game(game_to_text(PD))
    with pytest.raises(ValueError):
        restriction_meet([PD.full_restriction(), other.full_restriction()])
    with pytest.raises(ValueError):
        restriction_meet([])


def test_subsets_of():
    subs = list(subsets_of([0, 1]))
    assert subs == [frozenset(), frozenset([0]), frozenset([1]), frozenset([0, 1])]


def test_all_restrictions_count():
    assert sum(1 for _ in all_restrictions(PD)) == 16
    with pytest.raises(BudgetExceededError):
        list(all_restrictions(PD, budget=3))


_pd_sets = st.tuples(
    st.frozensets(st.integers(0, 1)), st.frozensets(st.integers(0, 1))
)


@given(_pd_sets, _pd_sets)
def test_lattice_meet_is_glb(a, b):
    """meet(a, b) is the largest restriction below both."""
    A, B = Restriction(PD, a), Restriction(PD, b)
    M = restriction_meet([A, B])
    assert restriction_leq(M, A) and restriction_leq(M, B)
    for G in all_restrictions(PD):
        if restriction_leq(G, A) and restriction_leq(G, B):
            assert restriction_leq(G, M)


@given(_pd_sets, _pd_sets)
def test_lattice_join_is_lub(a, b):
    A, B = Restriction(PD, a), Restriction(PD, b)
    J = restriction_join([A, B])
    assert restriction_leq(A, J) and restriction_leq(B, J)
    for G in all_restrictions(PD):
        if restriction_leq(A, G) and restriction_leq(B, G):
            assert restriction_leq(J, G)


@given(_pd_sets, _pd_sets, _pd_sets)
def test_lattice_absorption_and_order(a, b, c):
    A, B, C = (Restriction(PD, s) for s in (a, b, c))
    assert restriction_meet([A, restriction_join([A, B])]) == A
    assert restriction_join([A, restriction_meet([A, B])]) == A
    assert restriction_leq(A, A)
    if restriction_leq(A, B) and restriction_leq(B, A):
        assert A == B
    if restriction_leq(A, B) and restriction_leq(B, C):
        assert restriction_leq(A, C)


# ---------- mixed strategies and beliefs ----------


def test_mixed_strategy_validation():
    MixedStrategy(PD, 0, {0: Fraction(1, 3), 1: Fraction(2, 3)})
    with pytest.raises(ValueError):
        MixedStrategy(PD, 0, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        MixedStrategy(PD, 0, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError):
        MixedStrategy(PD, 0, {5: Fraction(1)})


def test_point_mass_support():
    m = point_mass(PD, 1, 0)
    assert m.support() == frozenset([0])
    assert m.weights[0] == 1
