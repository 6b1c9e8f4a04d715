"""Dominance relations and best responses against the bundled games."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from epigame import dominance
from epigame.checks import CheckConfig, random_game
from epigame.dominance import (
    BeliefClassError,
    is_best_response,
    mixed_strictly_dominates_exists,
    mixed_weakly_dominates_exists,
    strictly_dominates,
    weakly_dominates,
)
from epigame.games import (
    Game,
    GameFormatError,
    MixedStrategy,
    all_restrictions,
    full_profile,
    game_to_text,
    load_game,
    load_game_file,
    point_mass,
)
from epigame.lp import Infeasible, LinearProgram, Optimal, solve
from epigame.optimality import builtin

DATA = Path(__file__).resolve().parents[1] / "data"

PD = load_game_file(DATA / "pd.game")
TBT = load_game_file(DATA / "threebytwo.game")
WDW = load_game_file(DATA / "wd_witness.game")


def test_pd_defect_dominates():
    full = PD.full_restriction()
    for i in range(2):
        assert strictly_dominates(PD, full, i, 1, 0)
        assert weakly_dominates(PD, full, i, 1, 0)
        assert not strictly_dominates(PD, full, i, 0, 1)


def test_no_self_domination_on_nonempty_context():
    full = PD.full_restriction()
    assert not strictly_dominates(PD, full, 0, 1, 1)
    assert not weakly_dominates(PD, full, 0, 1, 1)


def test_threebytwo_needs_a_mixture():
    """B loses to the even mix of T and M but to neither pure strategy."""
    full = TBT.full_restriction()
    B = TBT.index(0, "B")
    for pure in (TBT.index(0, "T"), TBT.index(0, "M")):
        assert not strictly_dominates(TBT, full, 0, pure, B)
        assert not weakly_dominates(TBT, full, 0, pure, B)
    witness = mixed_strictly_dominates_exists(TBT, full, 0, full.sets[0], B)
    assert witness is not None
    assert witness.support() <= {TBT.index(0, "T"), TBT.index(0, "M")}
    assert sum(witness.weights.values()) == 1
    assert strictly_dominates(TBT, full, 0, witness, B)


def test_mixture_search_can_fail():
    full = TBT.full_restriction()
    T = TBT.index(0, "T")
    # nothing dominates T, and mixtures over {B} alone cannot beat it either
    assert mixed_strictly_dominates_exists(TBT, full, 0, full.sets[0], T) is None
    assert mixed_strictly_dominates_exists(TBT, full, 0, {TBT.index(0, "B")}, T) is None
    with pytest.raises(ValueError):
        mixed_strictly_dominates_exists(TBT, full, 0, frozenset(), T)


def test_weak_dominance_witness_game():
    full = WDW.full_restriction()
    a, b = WDW.index(0, "a"), WDW.index(0, "b")
    assert weakly_dominates(WDW, full, 0, b, a)
    assert not strictly_dominates(WDW, full, 0, b, a)
    witness = mixed_weakly_dominates_exists(WDW, full, 0, full.sets[0], a)
    assert witness is not None
    assert weakly_dominates(WDW, full, 0, witness, a)
    # in the single-column context the two rows tie, so weak dominance is gone
    small = WDW.restriction([["a", "b"], ["c"]])
    assert not weakly_dominates(WDW, small, 0, b, a)
    assert mixed_weakly_dominates_exists(WDW, small, 0, full.sets[0], a) is None


def test_empty_opponent_context_conventions():
    empty = PD.restriction([["C", "D"], []])
    assert strictly_dominates(PD, empty, 0, 0, 1)  # vacuously
    assert not weakly_dominates(PD, empty, 0, 0, 1)
    assert mixed_strictly_dominates_exists(PD, empty, 0, empty.sets[0], 0) is not None
    assert mixed_weakly_dominates_exists(PD, empty, 0, empty.sets[0], 0) is None
    assert not is_best_response(PD, PD.full_restriction(), empty, 0, 1)


# ---------- best responses ----------


def test_pd_best_responses():
    full = PD.full_restriction()
    assert is_best_response(PD, full, full, 0, 1)
    assert not is_best_response(PD, full, full, 0, 0)


def test_pure_point_mass_agreement():
    """A strategy justified by a pure belief is justified by its point mass."""
    rng = random.Random(7)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for _ in range(20):
        game = random_game(rng, cfg, n=2)
        full = game.full_restriction()
        for i in range(2):
            for s in game.strategies(i):
                pure = is_best_response(game, full, full, i, s, "pure")
                correlated = is_best_response(game, full, full, i, s, "correlated")
                mixed = is_best_response(game, full, full, i, s, "mixed")
                if pure:
                    assert correlated
                assert mixed == correlated  # two players: exact reduction


def test_grid_beliefs_are_sound_for_three_players():
    rng = random.Random(11)
    cfg = CheckConfig(count=0, max_strategies=2)
    for _ in range(10):
        game = random_game(rng, cfg, n=3)
        full = game.full_restriction()
        for i in range(3):
            for s in game.strategies(i):
                gridded = is_best_response(
                    game, full, full, i, s, "mixed", grid_denominator=3
                )
                if gridded:
                    # grid mixtures are product distributions, hence correlated
                    assert is_best_response(game, full, full, i, s, "correlated")


def test_mixed_three_players_needs_grid():
    game = random_game(random.Random(0), CheckConfig(count=0), n=3)
    full = game.full_restriction()
    with pytest.raises(BeliefClassError):
        is_best_response(game, full, full, 0, 0, "mixed")
    # a grid with no denominator holds no belief at all, so it is refused
    for bad in (0, -3):
        with pytest.raises(BeliefClassError, match="at least 1"):
            is_best_response(game, full, full, 0, 0, "mixed", grid_denominator=bad)


def test_unknown_belief_class():
    full = PD.full_restriction()
    with pytest.raises(BeliefClassError):
        is_best_response(PD, full, full, 0, 0, "psychic")


def test_strict_implies_weak_on_random_games():
    rng = random.Random(3)
    cfg = CheckConfig(count=0, max_players=3, max_strategies=3)
    for _ in range(25):
        game = random_game(rng, cfg)
        full = game.full_restriction()
        for i in range(game.n):
            for d in game.strategies(i):
                for s in game.strategies(i):
                    if strictly_dominates(game, full, i, d, s):
                        assert weakly_dominates(game, full, i, d, s)


def test_mixture_generalizes_pure_domination():
    rng = random.Random(5)
    cfg = CheckConfig(count=0, max_players=2, max_strategies=3)
    for _ in range(15):
        game = random_game(rng, cfg, n=2)
        full = game.full_restriction()
        for i in range(2):
            for d in game.strategies(i):
                for s in game.strategies(i):
                    if s != d and strictly_dominates(game, full, i, d, s):
                        found = mixed_strictly_dominates_exists(
                            game, full, i, full.sets[i], s
                        )
                        assert found is not None


def test_point_mass_dominator_matches_pure():
    full = PD.full_restriction()
    assert strictly_dominates(PD, full, 0, point_mass(PD, 0, 1), 0)
    assert not strictly_dominates(PD, full, 0, point_mass(PD, 0, 0), 1)


def test_belief_class_is_checked_before_the_beliefs():
    empty = PD.restriction([["C", "D"], []])
    with pytest.raises(BeliefClassError):
        is_best_response(PD, empty, empty, 0, 0, "psychic")
    game = random_game(random.Random(0), CheckConfig(count=0), n=3)
    no_beliefs = game.restriction([game.strategies(0), game.strategies(1), []])
    with pytest.raises(BeliefClassError):
        is_best_response(game, no_beliefs, no_beliefs, 0, 0, "mixed")


# ---------- pure prefilters against the LPs they skip ----------


def _payoffs(game, i, s, contexts):
    return [game.payoff(i, full_profile(i, s, ctx)) for ctx in contexts]


def _lp_mixed_dominance(game, i, support, s, contexts, strict):
    """Decide mixed strict or weak dominance of s over support with one LP."""
    k, m = len(support), len(contexts)
    columns = [_payoffs(game, i, d, contexts) for d in support]
    target = _payoffs(game, i, s, contexts)
    if strict:
        # maximize eps: sum_d w_d u(d, c) - eps >= u(s, c) for every context c,
        # with the free eps written as eps+ - eps-
        lp = LinearProgram(k + 2, [0] * k + [1, -1])
        for c in range(m):
            lp.add([col[c] for col in columns] + [-1, 1], ">=", target[c])
        lp.add([1] * k + [0, 0], "=", 1)
    else:
        # maximize the total gap: sum_d w_d u(d, c) - gap_c = u(s, c), gap_c >= 0
        lp = LinearProgram(k + m, [0] * k + [1] * m)
        for c in range(m):
            lp.add([col[c] for col in columns] + [-int(c2 == c) for c2 in range(m)],
                   "=", target[c])
        lp.add([1] * k + [0] * m, "=", 1)
    res = solve(lp)
    return isinstance(res, Optimal) and res.value > 0


def _lp_correlated_best_response(game, i, s, rivals, contexts):
    """Is there a distribution over contexts against which s is a best response?"""
    lp = LinearProgram(len(contexts), [0] * len(contexts))
    mine = _payoffs(game, i, s, contexts)
    for r in rivals:
        theirs = _payoffs(game, i, r, contexts)
        lp.add([a - b for a, b in zip(mine, theirs)], ">=", 0)
    lp.add([1] * len(contexts), "=", 1)
    return isinstance(solve(lp), Optimal)


def _row_game(rows):
    """Player 1 plays the named rows over the columns L, C and R; player 2
    gets nothing."""
    table = {
        (a, b): (Fraction(rows[name][b]), Fraction(0))
        for a, name in enumerate(rows) for b in range(3)
    }
    return Game((tuple(rows), ("L", "C", "R")), table)


def _weakly_dominated_best_response_game():
    """s ties r1 on L and C, so r1 weakly dominates it; r2 and r3 beat s on L
    and C in turn, so it is no pure best response; the even belief on L and C
    supports it all the same. No pure prefilter decides it: the LP must."""
    return _row_game({"s": (0, 0, 0), "r1": (0, 0, 1), "r2": (1, -1, 0), "r3": (-1, 1, 0)})


# s ties every rival on R and loses to one of them on L and on C, so no pure
# prefilter decides its mixed weak dominance. Against r1=(3,0,0), r2=(0,3,0)
# only the belief on R supports s, and the even mix of r1 and r2 weakly
# dominates it; against r1=(2,0,0), r2=(0,2,0) the even belief on all three
# columns supports it.
WEAKLY_DOMINATED = {"s": (1, 1, 0), "r1": (3, 0, 0), "r2": (0, 3, 0)}
WEAKLY_UNDOMINATED = {"s": (1, 1, 0), "r1": (2, 0, 0), "r2": (0, 2, 0)}


def test_weakly_dominated_strategy_can_be_a_correlated_best_response():
    game = _weakly_dominated_best_response_game()
    full = game.full_restriction()
    assert weakly_dominates(game, full, 0, 1, 0)
    assert is_best_response(game, full, full, 0, 0, "correlated")
    assert not is_best_response(game, full, full, 0, 0, "pure")
    assert mixed_strictly_dominates_exists(game, full, 0, full.sets[0], 0) is None


def test_prefilters_agree_with_the_dominance_and_belief_lps(monkeypatch):
    fallbacks = []

    def counted(lp):
        fallbacks.append(lp)
        return solve(lp)

    monkeypatch.setattr(dominance, "solve", counted)
    rng = random.Random(2024)
    # (players, strategies at most, payoff bound): small bounds make the ties
    # that separate weak from strict comparisons common
    draws = [(2, 4, 9), (2, 4, 9), (2, 4, 2), (2, 4, 1), (3, 3, 9)]
    decisions = 0
    for n, cap, bound in draws:
        cfg = CheckConfig(count=0, max_players=n, max_strategies=cap, payoff_bound=bound)
        game = random_game(rng, cfg, n=n)
        full = game.full_restriction()
        for G in all_restrictions(game):
            if G.is_empty():
                continue
            for i in range(n):
                contexts = list(G.opponent_profiles(i))
                for s in game.strategies(i):
                    for support in (G.strategies(i), full.strategies(i)):
                        found = mixed_strictly_dominates_exists(game, G, i, support, s)
                        assert (found is not None) == _lp_mixed_dominance(
                            game, i, support, s, contexts, strict=True)
                        if found is not None:
                            assert strictly_dominates(game, G, i, found, s)
                        found = mixed_weakly_dominates_exists(game, G, i, support, s)
                        assert (found is not None) == _lp_mixed_dominance(
                            game, i, support, s, contexts, strict=False)
                        if found is not None:
                            assert weakly_dominates(game, G, i, found, s)
                    for comparison in (G, full):
                        assert is_best_response(
                            game, comparison, G, i, s, "correlated"
                        ) == _lp_correlated_best_response(
                            game, i, s, comparison.strategies(i), contexts)
                    decisions += 6
    assert 0 < len(fallbacks) < decisions / 2


def _recorded_lps(monkeypatch):
    submitted = []

    def recorded(lp):
        res = solve(lp)
        submitted.append((lp, res))
        return res

    monkeypatch.setattr(dominance, "solve", recorded)
    return submitted


def test_mwd_takes_the_dominating_mixture_from_the_pearce_dual(monkeypatch):
    submitted = _recorded_lps(monkeypatch)
    game = _row_game(WEAKLY_DOMINATED)
    full = game.full_restriction()
    witness = mixed_weakly_dominates_exists(game, full, 0, full.sets[0], 0)
    [(_, res)] = submitted
    assert isinstance(res, Optimal) and res.value == 0
    assert len(witness.support()) > 1
    assert weakly_dominates(game, full, 0, witness, 0)
    assert _lp_mixed_dominance(game, 0, [0, 1, 2], 0, list(full.opponent_profiles(0)),
                               strict=False)


def test_mwd_survival_is_a_full_support_pearce_belief(monkeypatch):
    submitted = _recorded_lps(monkeypatch)
    game = _row_game(WEAKLY_UNDOMINATED)
    full = game.full_restriction()
    assert mixed_weakly_dominates_exists(game, full, 0, full.sets[0], 0) is None
    [(_, res)] = submitted
    t = res.value
    assert t == Fraction(1, 3)
    assert all(q + t > 0 for q in res.point[:-1])
    assert not _lp_mixed_dominance(game, 0, [0, 1, 2], 0, list(full.opponent_profiles(0)),
                                   strict=False)


def _tampered(monkeypatch, change):
    """Make dominance's LP answer change(the true answer)."""
    monkeypatch.setattr(dominance, "solve", lambda lp: change(solve(lp)))


@pytest.mark.parametrize("point, message", [
    ((1, 0, 0), "does not support the strategy"),  # r1 beats s on L
    ((Fraction(1, 2), Fraction(1, 4), 0), "not a distribution"),
    ((Fraction(3, 2), Fraction(-1, 2), 0), "not a distribution"),
])
def test_pearce_rechecks_its_belief_on_the_kernel_rows(monkeypatch, point, message):
    # s is a best response to the even belief on L and C, and to no pure one
    game = _row_game({"s": (2, 2, -5), "r1": (3, 0, 0), "r2": (0, 3, 0)})
    full = game.full_restriction()
    assert mixed_strictly_dominates_exists(game, full, 0, full.sets[0], 0) is None
    _tampered(monkeypatch, lambda res: Optimal(res.value, tuple(map(Fraction, point)), res.dual))
    with pytest.raises(AssertionError, match=message):
        mixed_strictly_dominates_exists(game, full, 0, full.sets[0], 0)


@pytest.mark.parametrize("ray, message", [
    ([1, 0], "does not dominate"),  # T alone does not dominate B
    ([-1, 2], "not a distribution"),
    ([0, 0], "not a distribution"),
])
def test_pearce_rechecks_its_mixture_on_the_kernel_rows(monkeypatch, ray, message):
    full = TBT.full_restriction()
    B = TBT.index(0, "B")
    assert mixed_strictly_dominates_exists(TBT, full, 0, full.sets[0], B) is not None
    # the ray's first entries weigh the support without B, in index order
    _tampered(monkeypatch, lambda res: Infeasible(list(map(Fraction, ray)) + res.ray[2:]))
    with pytest.raises(AssertionError, match=message):
        mixed_strictly_dominates_exists(TBT, full, 0, full.sets[0], B)


def test_brc_and_msd_submit_the_same_pearce_lp(monkeypatch):
    """Pearce's lemma as code: brc_l and msd_l at the same (G, i, s) solve one
    LP each, with equal rows; its point proves survival (s in the weakly
    dominated best response game) and its ray proves elimination (B in
    threebytwo). mwd_l, where it needs an LP, solves the same one with one
    more column t, the weight every context keeps. In the last two games
    msd keeps s; mwd keeps it where the uniform belief supports it and
    eliminates it where only beliefs without R do."""
    submitted = _recorded_lps(monkeypatch)
    cases = (
        # r1 weakly dominates s, so mwd needs no LP
        (_weakly_dominated_best_response_game(), 0, True, False, 0),
        (TBT, TBT.index(0, "B"), False, False, 1),
        (_row_game({"s": (1, 1, 1), "r1": (2, 0, 1), "r2": (0, 2, 1), "r3": (0, 0, 2)}),
         0, True, True, 1),
        (_row_game({"s": (1, 1, 1), "r1": (2, 0, 2), "r2": (0, 2, 2)}), 0, True, False, 1),
    )
    for game, s, survives, survives_weak, mwd_lp_count in cases:
        G = game.full_restriction()
        runs = []
        for name in ("brc_l", "msd_l", "mwd_l"):
            del submitted[:]
            runs.append((builtin(game, name, 0).holds(s, G), [lp for lp, _ in submitted]))
        (brc_answer, [brc_lp]), (msd_answer, [msd_lp]), (mwd_answer, mwd_lps) = runs
        assert brc_answer == msd_answer == survives
        assert brc_lp.rows == msd_lp.rows and brc_lp.objective == msd_lp.objective
        assert mwd_answer == survives_weak
        assert len(mwd_lps) == mwd_lp_count
        if mwd_lps:
            m = msd_lp.num_vars
            assert mwd_lps[0].objective == [0] * m + [1]
            assert mwd_lps[0].rows == [
                (coeffs + [sum(coeffs) if rel == ">=" else m], rel, rhs)
                for coeffs, rel, rhs in msd_lp.rows
            ]


def test_each_decision_runs_the_pure_prefilter_once(monkeypatch):
    """is_best_response, mixed_strictly_dominates_exists and
    mixed_weakly_dominates_exists each run the one pure best-response
    prefilter, _best_responders, on their one strategy (the weak search with
    strict=True) and then share the Pearce step, which does not run it again."""
    calls = []
    prefilter = dominance._best_responders

    def counted(rows, rivals, candidates, strict=False):
        calls.append((tuple(candidates), strict))
        return prefilter(rows, rivals, candidates, strict)

    monkeypatch.setattr(dominance, "_best_responders", counted)
    survivor = _weakly_dominated_best_response_game()
    # s in the survivor game reaches the LP; B in threebytwo is eliminated by it
    cases = [(survivor, 0, True), (TBT, TBT.index(0, "B"), False)]
    rng = random.Random(77)
    for _ in range(3):
        game = random_game(rng, CheckConfig(count=0, max_players=2, max_strategies=4,
                                            payoff_bound=3), n=2)
        cases += [(game, s, None) for s in game.strategies(0)]
    for game, s, survives in cases:
        full = game.full_restriction()
        del calls[:]
        answer = is_best_response(game, full, full, 0, s, "correlated")
        assert calls == [((s,), False)]
        del calls[:]
        found = mixed_strictly_dominates_exists(game, full, 0, full.sets[0], s)
        assert calls == [((s,), False)]
        del calls[:]
        weakly = mixed_weakly_dominates_exists(game, full, 0, full.sets[0], s)
        assert calls == [((s,), True)]
        assert answer == (found is None)
        assert weakly is not None or found is None  # strict domination is weak domination
        if survives is not None:
            assert answer == survives


def _pearce_elimination_cases():
    """(game, strategy, the builtins that eliminate it) where _pearce decides:
    B in threebytwo by an LP's ray, s under WEAKLY_DOMINATED by the weak
    LP's dual at t = 0, and C in pd by its pure dominator D."""
    return [(TBT, TBT.index(0, "B"), ("msd_l", "mwd_l", "brc_l")),
            (_row_game(WEAKLY_DOMINATED), 0, ("mwd_l",)),
            (PD, 0, ("msd_l", "mwd_l", "brc_l"))]


def test_set_wise_decisions_build_no_mixed_strategy(monkeypatch):
    # msd, mwd and correlated br only ask whether _pearce finds a witness,
    # so their eliminations build no MixedStrategy, through the builtins and
    # through mixed_undominated and best_responses called directly
    built = []
    post_init = MixedStrategy.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MixedStrategy, "__post_init__", counted)
    submitted = _recorded_lps(monkeypatch)
    for game, s, names in _pearce_elimination_cases():
        full = game.full_restriction()
        rows, support = full.rows(0), full.sets[0]
        for name in names:
            assert not builtin(game, name, 0).holds(s, full)
            if name == "brc_l":
                assert dominance.best_responses(
                    game, full, rows, 0, support, (s,), "correlated") == []
            else:
                assert dominance.mixed_undominated(rows, support, (s,), name == "mwd_l") == []
    assert any(isinstance(res, Infeasible) for _, res in submitted)
    assert any(isinstance(res, Optimal) and res.value == 0 for _, res in submitted)
    assert built == []


def test_mixed_dominance_searches_return_a_fraction_mixture():
    for game, s, names in _pearce_elimination_cases():
        full = game.full_restriction()
        for name, search, dominates in (
                ("msd_l", mixed_strictly_dominates_exists, strictly_dominates),
                ("mwd_l", mixed_weakly_dominates_exists, weakly_dominates)):
            witness = search(game, full, 0, full.sets[0], s)
            if name not in names:
                assert witness is None
                continue
            assert isinstance(witness, MixedStrategy)
            assert all(type(w) is Fraction and w > 0 for w in witness.weights.values())
            assert sum(witness.weights.values()) == 1
            assert dominates(game, full, 0, witness, s)
    # a pure dominator comes back as its point mass
    full = PD.full_restriction()
    witness = mixed_strictly_dominates_exists(PD, full, 0, full.sets[0], 0)
    assert witness.weights == point_mass(PD, 0, 1).weights == {1: 1}


# ---------- the integer kernel against Fraction arithmetic ----------


def _ref_payoff(game, i, strategy, ctx):
    if isinstance(strategy, MixedStrategy):
        return sum((w * game.payoff(i, full_profile(i, s, ctx))
                    for s, w in strategy.weights.items()), Fraction(0))
    return game.payoff(i, full_profile(i, strategy, ctx))


def _ref_gaps(game, G, i, dominator, dominated):
    return [_ref_payoff(game, i, dominator, ctx) - game.payoff(i, full_profile(i, dominated, ctx))
            for ctx in G.opponent_profiles(i)]


def _ref_best_response(game, G, i, s, rivals, strict):
    mine = [game.payoff(i, full_profile(i, s, ctx)) for ctx in G.opponent_profiles(i)]
    theirs = [[game.payoff(i, full_profile(i, r, ctx)) for ctx in G.opponent_profiles(i)]
              for r in rivals]
    return any(all(u > t[c] if strict else u >= t[c] for t in theirs)
               for c, u in enumerate(mine))


def _fraction_games(rng, counts):
    """One game as text, mixing integer tokens with p/q tokens of denominators
    1, 2, 3, 6 and 7 and some negative values, loaded by load_game; and the
    same payoffs as a Game built from its Fraction table."""
    lines = [f"players {len(counts)}"]
    lines += [f"strategies {i + 1} " + " ".join(f"s{x}" for x in range(k))
              for i, k in enumerate(counts)]
    table = {}
    for profile in itertools.product(*map(range, counts)):
        tokens = []
        for _ in counts:
            q = rng.choice((1, 2, 3, 6, 7))
            p = rng.randint(-2 * q, 2 * q)
            tokens.append(str(p) if q == 1 and rng.random() < 0.5 else f"{p}/{q}")
        table[profile] = tuple(Fraction(t) for t in tokens)
        lines.append("payoff " + " ".join(f"s{x}" for x in profile) + " " + " ".join(tokens))
    loaded = load_game("\n".join(lines) + "\n")
    direct = Game(loaded.strategy_names, table)
    return loaded, direct


def test_kernel_decisions_equal_fraction_arithmetic():
    rng = random.Random(606)
    games = []
    for counts in ((3, 3), (4, 3), (2, 2, 3)):
        loaded, direct = _fraction_games(rng, counts)
        assert loaded.table == direct.table
        assert loaded.kernel == direct.kernel
        games += [loaded, direct]
    games.append(random_game(rng, CheckConfig(count=0, max_players=3, max_strategies=3), n=3))
    checked = 0
    for game in games:
        scales = [math.lcm(*(v[i].denominator for v in game.table.values())) for i in range(game.n)]
        for G in all_restrictions(game):
            for i in range(game.n):
                for s in game.strategies(i):  # the rows, in opponent_profiles order
                    assert G.rows(i)[s] == tuple(scales[i] * game.payoff(i, full_profile(i, s, ctx))
                                                 for ctx in G.opponent_profiles(i))
                own = G.strategies(i)
                mixtures = [point_mass(game, i, s) for s in own]
                if len(own) > 1:
                    mixtures.append(MixedStrategy(
                        game, i, {s: Fraction(1, len(own)) for s in own}))
                    mixtures.append(MixedStrategy(
                        game, i, {own[0]: Fraction(2, 7), own[-1]: Fraction(5, 7)}))
                for s in game.strategies(i):
                    for d in [*game.strategies(i), *mixtures]:
                        gaps = _ref_gaps(game, G, i, d, s)
                        assert strictly_dominates(game, G, i, d, s) == all(g > 0 for g in gaps)
                        assert weakly_dominates(game, G, i, d, s) == (
                            all(g >= 0 for g in gaps) and any(g > 0 for g in gaps))
                        checked += 1
                    for comparison in (G, game.full_restriction()):
                        rivals = comparison.strategies(i)
                        assert is_best_response(game, comparison, G, i, s, "pure") == (
                            _ref_best_response(game, G, i, s, rivals, strict=False))
                        others = [r for r in rivals if r != s]
                        hits, _ = dominance._best_responders(G.rows(i), comparison.sets[i], [s],
                                                             strict=True)
                        assert bool(hits) == _ref_best_response(game, G, i, s, others, strict=True)
    assert checked > 10000


def test_kernel_scales_each_player_by_the_lcm_of_their_denominators():
    text = (
        "players 2\nstrategies 1 a b\nstrategies 2 x y\n"
        "payoff a x +3 -0\npayoff a y 007 6/4\npayoff b x -2/6 4/2\npayoff b y 5 -7/7\n"
    )
    game = load_game(text)
    # player 1: denominators 1 and 3; player 2: 1 and 2 (6/4 is 3/2)
    assert game.kernel == (((9, 21), (-1, 15)), ((0, 4), (3, -2)))
    assert Game(game.strategy_names, game.table).kernel == game.kernel
    # the Fraction table and the text it writes are unchanged
    assert game_to_text(game) == (
        "players 2\nstrategies 1 a b\nstrategies 2 x y\n"
        "payoff a x 3 0\npayoff a y 7 3/2\npayoff b x -1/3 2\npayoff b y 5 -1\n"
    )
    for bad in ("0.5", "1/0", "1_0"):
        with pytest.raises(GameFormatError) as info:
            load_game(text.replace("-7/7", bad))
        assert str(info.value) == f"line 7: not an integer or p/q rational: {bad!r}"
