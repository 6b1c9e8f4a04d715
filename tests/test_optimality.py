"""Builtin optimality properties and their structural checks."""

import random
from pathlib import Path

import pytest

from epigame.checks import CheckConfig, random_game
from epigame.dominance import (
    is_best_response,
    mixed_strictly_dominates_exists,
    mixed_weakly_dominates_exists,
    strictly_dominates,
    weakly_dominates,
)
from epigame.games import all_restrictions, game_to_text, load_game, load_game_file
from epigame.logic import (
    LO_TEXTS,
    check_positive_lo,
    compile_lo_to_property,
    lo_text,
    parse_lo,
)
from epigame.optimality import (
    BUILTIN_NAMES,
    MONOTONE_BUILTINS,
    NonMonotonicPropertyError,
    OptimalityProperty,
    builtin,
    constant_property,
    is_monotonic_on,
    profile_named,
    require_monotone,
    satisfies_condition_A,
    satisfies_singleton_truth,
    value_table,
)

DATA = Path(__file__).resolve().parents[1] / "data"

PD = load_game_file(DATA / "pd.game")
WDW = load_game_file(DATA / "wd_witness.game")
TBT = load_game_file(DATA / "threebytwo.game")

C, D = 0, 1


def test_builtin_validation():
    with pytest.raises(ValueError):
        builtin(PD, "nope", 0)
    with pytest.raises(ValueError):
        builtin(PD, "sd_l", 0, belief_class="pure")
    builtin(PD, "br_g", 0, belief_class="correlated")  # allowed


def test_holds_guards():
    prop = builtin(PD, "sd_l", 0)
    other = load_game_file(DATA / "pd.game")
    with pytest.raises(ValueError):
        prop.holds(0, other.full_restriction())
    with pytest.raises(ValueError):
        prop.holds(9, PD.full_restriction())


def test_pd_full_restriction_values():
    full = PD.full_restriction()
    for name in BUILTIN_NAMES:
        prop = builtin(PD, name, 0)
        assert not prop.holds(C, full), name
        assert prop.holds(D, full), name


def test_local_sees_only_the_context():
    row_c = PD.restriction([["C"], ["C", "D"]])
    assert builtin(PD, "sd_l", 0).holds(C, row_c)
    assert not builtin(PD, "sd_g", 0).holds(C, row_c)


def test_empty_opponent_component_conventions():
    """With no opponent context, strict domination is vacuous and beliefs vanish."""
    G = PD.restriction([["C", "D"], []])
    expect = {
        "sd_l": False, "sd_g": False, "msd_l": False, "msd_g": False,
        "wd_l": True, "wd_g": True, "mwd_l": True, "mwd_g": True,
        "br_l": False, "br_g": False, "brc_l": False,
    }
    for name, value in expect.items():
        assert builtin(PD, name, 0).holds(C, G) is value, name


def test_empty_own_component_conventions():
    G = PD.restriction([[], ["C", "D"]])
    for name in ("sd_l", "wd_l", "msd_l", "mwd_l", "br_l", "brc_l"):
        assert builtin(PD, name, 0).holds(C, G), name


def test_value_table_covers_everything():
    table = value_table(builtin(PD, "sd_l", 0))
    assert len(table) == 2 * 16


# ---------- monotonicity ----------


def test_monotone_builtins_on_pd():
    for name in MONOTONE_BUILTINS:
        assert is_monotonic_on(builtin(PD, name, 0)).monotonic, name


def test_sd_local_is_not_monotone():
    report = is_monotonic_on(builtin(PD, "sd_l", 0))
    assert not report.monotonic
    s, small, big = report.counterexample
    prop = builtin(PD, "sd_l", 0)
    assert prop.holds(s, small) and not prop.holds(s, big)


def test_wd_global_witness_game():
    """Enlarging the column set creates the weak domination of a by b."""
    report = is_monotonic_on(builtin(WDW, "wd_g", 0))
    assert not report.monotonic
    s, small, big = report.counterexample
    assert WDW.name(0, s) == "a"
    assert not is_monotonic_on(builtin(WDW, "wd_l", 0)).monotonic
    assert not is_monotonic_on(builtin(WDW, "mwd_g", 0)).monotonic
    assert is_monotonic_on(builtin(WDW, "sd_g", 0)).monotonic


def test_require_monotone():
    require_monotone(profile_named(PD, "sd_g"))
    with pytest.raises(NonMonotonicPropertyError) as info:
        require_monotone(profile_named(PD, "sd_l"))
    assert "sd_l" in str(info.value)


# ---------- structural conditions ----------


def test_globals_ignore_own_component():
    for name in ("sd_g", "msd_g", "wd_g", "mwd_g", "br_g"):
        assert satisfies_condition_A(builtin(PD, name, 0)).independent, name


def test_locals_can_depend_on_own_component():
    report = satisfies_condition_A(builtin(PD, "sd_l", 0))
    assert not report.independent
    s, G1, G2 = report.counterexample
    prop = builtin(PD, "sd_l", 0)
    assert prop.holds(s, G1) != prop.holds(s, G2)
    assert G1.sets[1] == G2.sets[1]  # only the own component differs


def test_locals_satisfy_singleton_truth():
    for name in ("sd_l", "msd_l", "wd_l", "mwd_l", "br_l", "brc_l"):
        assert satisfies_singleton_truth(builtin(PD, name, 0)), name


def test_singleton_truth_fails_for_globals_on_pd():
    assert not satisfies_singleton_truth(builtin(PD, "sd_g", 0))
    assert not satisfies_singleton_truth(builtin(PD, "br_g", 0))


# ---------- profiles ----------


def test_profile_named_forms():
    profile = profile_named(PD, "sd_l")
    assert [p.name for p in profile] == ["sd_l", "sd_l"]
    assert [p.player for p in profile] == [0, 1]
    profile = profile_named(PD, "sd_l,br_g")
    assert [p.name for p in profile] == ["sd_l", "br_g"]
    profile = profile_named(PD, ["wd_l", "wd_g"])
    assert [p.name for p in profile] == ["wd_l", "wd_g"]
    with pytest.raises(ValueError):
        profile_named(PD, "sd_l,sd_l,sd_l")


def test_constant_property():
    prop = constant_property(PD, 0, value=False)
    assert not prop.holds(C, PD.full_restriction())


# ---------- declared facts against the exhaustive oracle ----------


def _oracle_games(lp_heavy):
    rng = random.Random(44)
    cfg = CheckConfig(count=0)
    return [PD, TBT, WDW] + [random_game(rng, cfg, lp_heavy=lp_heavy) for _ in range(10)]


def test_declared_facts_hold_on_the_oracle():
    """The mixed-dominance properties run on the smaller games the checks
    draw for linear programs; the others on games of up to 10 strategies."""
    for lp_heavy in (False, True):
        names = [nm for nm in BUILTIN_NAMES if nm.startswith("m") == lp_heavy]
        for game in _oracle_games(lp_heavy):
            assert sum(game.strategy_count(i) for i in range(game.n)) <= 10
            for name in names:
                for i in range(game.n):
                    prop = builtin(game, name, i)
                    if prop.monotone:
                        assert is_monotonic_on(prop).monotonic, (name, i)
                    if prop.own_independent:
                        assert satisfies_condition_A(prop).independent, (name, i)


def test_declared_sets_of_builtins():
    monotone = {nm for nm in BUILTIN_NAMES if builtin(PD, nm, 0).monotone}
    independent = {nm for nm in BUILTIN_NAMES if builtin(PD, nm, 0).own_independent}
    assert monotone == {"sd_g", "msd_g", "br_g"} == set(MONOTONE_BUILTINS)
    assert independent == {"sd_g", "msd_g", "wd_g", "mwd_g", "br_g"}
    prop = constant_property(PD, 0)
    assert prop.monotone and prop.own_independent


def test_compiled_monotone_is_syntactic_positivity():
    seen = set()
    for name in LO_TEXTS:
        formula = parse_lo(lo_text(name, 0))
        prop = compile_lo_to_property(formula, PD, 0, name)
        assert prop.monotone == check_positive_lo(formula), name
        assert not prop.own_independent
        seen.add(prop.monotone)
    assert seen == {True, False}


def test_require_monotone_trusts_the_declaration():
    """A declared fact is not re-proven; undeclared ones still are."""
    sd_l = builtin(PD, "sd_l", 0)
    declared = OptimalityProperty("sd_l", 0, PD, sd_l.rule, monotone=True)
    require_monotone((declared,))
    with pytest.raises(NonMonotonicPropertyError):
        require_monotone((sd_l,))


def test_pure_dominance_builtins_equal_the_pairwise_relations():
    """sd and wd, asked about one strategy with holds and about all of them at
    once with survivors (where the best-response prefilter runs), keep the
    strategies that the pairwise relation over the same rivals keeps, on
    every restriction, empty ones included."""
    rng = random.Random(4242)
    checked = 0
    for n, cap, bound in ((2, 4, 1), (2, 4, 3), (2, 3, 9), (3, 3, 1), (3, 2, 2)):
        game = random_game(rng, CheckConfig(count=0, max_players=n, max_strategies=cap,
                                            payoff_bound=bound), n=n)
        for i in range(n):
            props = {name: builtin(game, name, i) for name in ("sd_l", "sd_g", "wd_l", "wd_g")}
            for G in all_restrictions(game):
                for name, prop in props.items():
                    relation = strictly_dominates if name[0] == "s" else weakly_dominates
                    rivals = G.strategies(i) if name.endswith("_l") else game.strategies(i)
                    want = {s for s in game.strategies(i)
                            if not any(relation(game, G, i, d, s) for d in rivals)}
                    assert prop.survivors(G, game.strategies(i)) == want, (name, G.describe())
                    for s in game.strategies(i):
                        assert prop.holds(s, G) == (s in want)
                        checked += 1
    assert checked > 5000


# ---------- survivors: the set-wise rules against holds ----------


def _gate_games():
    """Seeded 2- and 3-player games; small payoff bounds make ties common."""
    rng = random.Random(1414)
    draws = [(2, 3, 1), (2, 3, 3), (2, 3, 9), (2, 4, 2), (2, 4, 9), (3, 2, 1), (3, 2, 3), (3, 2, 9)]
    return [PD, TBT, WDW] + [
        random_game(rng, CheckConfig(count=0, max_players=n, max_strategies=cap,
                                     payoff_bound=bound), n=n)
        for n, cap, bound in draws
    ]


def _gate_builtins(game):
    """(name, belief class) of each builtin the gate runs."""
    args = [(name, None) for name in BUILTIN_NAMES]
    args += [(name, cls) for name in ("br_l", "br_g") for cls in ("correlated", "mixed")]
    return args


def _gate_properties(game, i):
    props = [builtin(game, name, i, cls) for name, cls in _gate_builtins(game)]
    props += [compile_lo_to_property(lo_text("wd_l", i), game, i, "wd_l"),
              compile_lo_to_property(lo_text("br_g", i), game, i, "br_g"),
              constant_property(game, i), constant_property(game, i, value=False)]
    return props


def test_survivors_equal_holds():
    """On every restriction, empty parts included, survivors(G, S) for all of
    the owner's strategies S (those outside G.sets[i] too) is the holds filter."""
    checked = 0
    for game in _gate_games():
        for i in range(game.n):
            props = _gate_properties(game, i)
            everyone = list(game.strategies(i))
            for G in all_restrictions(game):
                for prop in props:
                    got = prop.survivors(G, everyone)
                    assert isinstance(got, frozenset)
                    assert got == {s for s in everyone if prop.holds(s, G)}, (
                        prop, G.describe())
                    assert prop.survivors(G, G.sets[i]) == got & G.sets[i]
                    checked += 1
    assert checked > 15000


def test_public_predicates_match_the_builtins():
    """msd, mwd and br answer holds with their set-wise rule, and the public
    per-strategy predicates wrap the same rules; on every gate restriction
    the two still agree: the mixed searches over the owner's part (global:
    every strategy), where an empty support holds, and is_best_response
    against that part in every belief class."""
    checked = 0
    for game in _gate_games():
        full = game.full_restriction()
        for i in range(game.n):
            for name, cls in _gate_builtins(game):
                if name[:2] in ("sd", "wd"):
                    continue
                prop = builtin(game, name, i, cls)
                local = name.endswith("_l")
                for G in all_restrictions(game):
                    support = G.sets[i] if local else full.sets[i]
                    for s in game.strategies(i):
                        if name.startswith("br"):
                            belief = "correlated" if name == "brc_l" else cls or "pure"
                            expected = is_best_response(
                                game, G if local else full, G, i, s, belief)
                        else:
                            search = (mixed_weakly_dominates_exists if name.startswith("mwd")
                                      else mixed_strictly_dominates_exists)
                            expected = not support or search(game, G, i, support, s) is None
                        assert prop.holds(s, G) == expected, (prop, G.describe(), s)
                        checked += 1
    assert checked > 20000


def test_global_survivors_are_the_holds_filter_in_any_order():
    """The restrictions with the same opponents' part share the game's cut
    rows and their column maxima. Visited in a shuffled order, interleaved
    with each other and with sd_l, and asked about the own part or about
    any set of the owner's strategies, survivors of every global builtin
    (msd_g, mwd_g and br_g in the pure and correlated classes included)
    stays the holds filter. Anything kept on the shared cuts across
    opponents' parts, or between two properties, shows here."""
    rng = random.Random(1818)
    checked = 0
    for game in _gate_games():
        game = load_game(game_to_text(game))  # no cuts kept from other tests
        props = [builtin(game, name, i, cls) for i in range(game.n)
                 for name, cls in (("sd_g", None), ("wd_g", None), ("msd_g", None),
                                   ("mwd_g", None), ("br_g", None), ("br_g", "correlated"),
                                   ("sd_l", None))]
        visits = [(G, prop) for G in all_restrictions(game) for prop in props]
        rng.shuffle(visits)
        for G, prop in visits:
            everyone = list(game.strategies(prop.player))
            candidates = (G.sets[prop.player] if rng.random() < 0.5
                          else frozenset(rng.sample(everyone, rng.randint(1, len(everyone)))))
            assert prop.survivors(G, candidates) == {
                s for s in candidates if prop.holds(s, G)}, (prop, G.describe())
            checked += 1
    assert checked > 7000


def test_pure_and_correlated_br_g_differ_in_either_order():
    """The middle strategy M below is a correlated best response and no pure
    one, whichever of the two classes asks first on the same game."""
    text = ("players 2\nstrategies 1 T M B\nstrategies 2 L R\n"
            "payoff T L 3 0\npayoff T R 0 0\npayoff M L 2 0\npayoff M R 2 0\n"
            "payoff B L 0 0\npayoff B R 3 0\n")
    for order in (("pure", "correlated"), ("correlated", "pure")):
        game = load_game(text)
        full = game.full_restriction()
        kept = {cls: builtin(game, "br_g", 0, belief_class=cls).survivors(full, full.sets[0])
                for cls in order}
        assert kept == {"pure": {0, 2}, "correlated": {0, 1, 2}}


def test_survivors_refuses_as_holds_does():
    prop = builtin(PD, "sd_l", 0)
    other = load_game_file(DATA / "pd.game").full_restriction()
    for refused in (lambda: prop.holds(0, other), lambda: prop.survivors(other, [0])):
        with pytest.raises(ValueError, match="^restriction belongs to a different game$"):
            refused()
    full = PD.full_restriction()
    for candidates in ([0, 9], [9, 0, -1], range(3)):
        first = next(s for s in candidates if not 0 <= s < 2)
        with pytest.raises(ValueError) as by_holds:
            prop.holds(first, full)
        with pytest.raises(ValueError) as by_survivors:
            prop.survivors(full, candidates)
        assert str(by_survivors.value) == str(by_holds.value) == (
            f"strategy index {first} out of range")
    assert prop.survivors(full, []) == frozenset()
