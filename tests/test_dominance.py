"""Dominance relations and best responses against the bundled games."""

import itertools
import math
import operator
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
    BudgetExceededError,
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
from epigame.lp import LinearProgram, Optimal, solve
from epigame.operators import iterate_to_outcome
from epigame.optimality import builtin, profile_named

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


def _grid_mixtures(count, denominator):
    """Every mixture over count strategies whose weights have a denominator
    at most the given one, as coprime int vectors."""
    found = set()
    for d in range(1, denominator + 1):
        for combo in itertools.combinations_with_replacement(range(count), d):
            weights = [combo.count(k) for k in range(count)]
            g = math.gcd(*weights)
            found.add(tuple(w // g for w in weights))
    return sorted(found)


def _grid_keeps(game, i, s, denominator):
    """The reference grid: is s at least as good as every strategy of player
    i against some product of grid mixtures on the full game?"""
    rows = game.full_restriction().rows(i)
    grids = [_grid_mixtures(game.strategy_count(j), denominator)
             for j in range(game.n) if j != i]
    for belief in itertools.product(*grids):
        weights = [math.prod(p) for p in itertools.product(*belief)]
        values = [sum(map(operator.mul, weights, rows[t])) for t in game.strategies(i)]
        if values[s] == max(values):
            return True
    return False


def test_cells_agree_with_a_reference_grid_and_the_correlated_lp():
    """On 500 seeded three-player games, the cells eliminate no strategy
    that a product belief of the denominator-3 grid supports, and keep none
    that the correlated LP eliminates. No decision reaches the cell limit."""
    rng = random.Random(2026)
    reached, eliminated = 0, 0
    for _ in range(500):
        cfg = CheckConfig(count=0, max_strategies=rng.choice((3, 4, 5)),
                          payoff_bound=rng.choice((2, 4, 9)))
        game = random_game(rng, cfg, n=3)
        full = game.full_restriction()
        for i in range(3):
            for s in game.strategies(i):
                mixed = is_best_response(game, full, full, i, s, "mixed")
                correlated = is_best_response(game, full, full, i, s, "correlated")
                assert correlated or not mixed
                if correlated and not is_best_response(game, full, full, i, s, "pure"):
                    reached += 1
                    eliminated += not mixed
                    assert mixed or not _grid_keeps(game, i, s, 3), (game_to_text(game), i, s)
    assert (reached, eliminated) == (56, 9)


def _independent_belief_game(rows):
    """Player 1 has the given payoff rows over the contexts (a,c), (a,d),
    (b,c), (b,d) of players 2 and 3, who get 0 everywhere."""
    lines = ["players 3", "strategies 1 " + " ".join(rows), "strategies 2 a b",
             "strategies 3 c d"]
    for s, row in rows.items():
        for (x, y), value in zip(itertools.product("ab", "cd"), row):
            lines.append(f"payoff {s} {x} {y} {value} 0 0")
    return load_game("\n".join(lines) + "\n")


def test_mixed_three_players_is_decided_without_a_grid():
    # m is a best response only to a belief between 1/3 and 2/3 on a, and
    # for any mixture of player 3
    game = _independent_belief_game({"x": (3, 3, 0, 0), "y": (0, 0, 3, 3), "m": (2, 2, 2, 2)})
    full = game.full_restriction()
    assert is_best_response(game, full, full, 0, game.index(0, "m"), "mixed")
    # n is the best response to the even belief on (a,c) and (b,d), and to
    # no product belief: it would need 3 P >= 4 xy, 3 P >= 4 (1-x)(1-y) and
    # 3 P >= 2 at once, for P = xy + (1-x)(1-y)
    game = _independent_belief_game({"n": (3, 0, 0, 3), "r1": (4, 0, 0, 0),
                                     "r2": (0, 0, 0, 4), "r3": (2, 2, 2, 2)})
    full = game.full_restriction()
    rows = full.rows(0)
    assert dominance.best_responses(game, full, rows, 0, full.sets[0], (0,), "mixed") == []
    assert dominance.best_responses(game, full, rows, 0, full.sets[0], (0,),
                                    "correlated") == [0]
    # s is a best response only at x = y = 1/sqrt(2), which no cell vertex,
    # barycentre or LP point reaches, so it is refused, never eliminated
    game = _independent_belief_game({"s": (0, 0, 0, 0), "r1": (-1, 1, 1, 1),
                                     "r2": (1, -1, -1, -1), "r3": (0, 2, -2, 0),
                                     "r4": (0, -2, 2, 0)})
    full = game.full_restriction()
    with pytest.raises(BudgetExceededError,
                       match=f"player 1's strategy 's' .* after {dominance.CELL_LIMIT} cells"):
        is_best_response(game, full, full, 0, 0, "mixed")
    assert is_best_response(game, full, full, 0, 0, "correlated")


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
        is_best_response(game, no_beliefs, no_beliefs, 0, 0, "psychic")
    # with no beliefs held, no class supports a strategy
    for cls in ("pure", "correlated", "mixed"):
        assert not is_best_response(game, no_beliefs, no_beliefs, 0, 0, cls)


# ---------- pure prefilters against the LPs they skip ----------


def _payoffs(game, i, s, contexts):
    return [game.payoff(i, full_profile(i, s, ctx)) for ctx in contexts]


def _mixture_dominates(columns, target, strict):
    """Decide mixed strict or weak dominance of the payoffs target (one entry
    per context) by a mixture of the rows columns, with one LP on the mixture
    side: weights w >= 0 with sum w <= 1, and gain_d(c) = columns[d][c] -
    target[c]. target is dominated when the optimum is above 0."""
    k, m = len(columns), len(target)
    losses = [list(map(operator.sub, target, column)) for column in columns]
    if strict:
        # maximize eps: eps - sum_d w_d gain_d(c) <= 0 for every context c
        lp = LinearProgram(k + 1, [0] * k + [1])
        for c in range(m):
            lp.add([loss[c] for loss in losses] + [1], 0)
        lp.add([1] * k + [0], 1)
    else:
        # maximize sum_c g_c: g_c - sum_d w_d gain_d(c) <= 0 and the mixture
        # loses nowhere, sum_d w_d (target[c] - columns[d][c]) <= 0
        lp = LinearProgram(k + m, [0] * k + [1] * m)
        for c in range(m):
            lp.add([loss[c] for loss in losses] + [int(c2 == c) for c2 in range(m)], 0)
            lp.add([loss[c] for loss in losses] + [0] * m, 0)
        lp.add([1] * k + [0] * m, 1)
    res = solve(lp)
    return isinstance(res, Optimal) and res.value > 0


def _lp_mixed_dominance(game, i, support, s, contexts, strict):
    """Decide mixed strict or weak dominance of s over support with one LP."""
    return _mixture_dominates([_payoffs(game, i, d, contexts) for d in support],
                              _payoffs(game, i, s, contexts), strict)


def _lp_correlated_best_response(game, i, s, rivals, contexts):
    """Is there a distribution over contexts against which s is a best
    response? Maximize sum p over p >= 0 with sum_c p_c (u(r, c) - u(s, c))
    <= 0 for every rival r and sum p <= 1: yes when the optimum is above 0."""
    m = len(contexts)
    lp = LinearProgram(m, [1] * m)
    mine = _payoffs(game, i, s, contexts)
    for r in rivals:
        lp.add([b - a for a, b in zip(mine, _payoffs(game, i, r, contexts))], 0)
    lp.add([1] * m, 1)
    res = solve(lp)
    return isinstance(res, Optimal) and res.value > 0


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
    # the value is t, the last coordinate; both are numerators over res.d
    t = res.value
    assert Fraction(t, res.d) == Fraction(1, 3)
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
    # the belief in int numerators over one d, with the value sum p its objective
    d = math.lcm(*(x.denominator for x in point))
    numerators = tuple(int(x * d) for x in point)
    _tampered(monkeypatch, lambda res: res._replace(value=sum(numerators), point=numerators, d=d))
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
    # the ray is the value-0 optimum's dual on the gap rows, which weighs the
    # support without B in index order and proves that no belief exists
    _tampered(monkeypatch, lambda res: res._replace(dual=(*ray, *res.dual[2:])))
    with pytest.raises(AssertionError, match=message):
        mixed_strictly_dominates_exists(TBT, full, 0, full.sets[0], B)


def test_the_one_phase_pearce_lp_decides_as_the_mixture_lp(monkeypatch):
    """Pearce's lemma across LP duality: on 300 seeded row sets, with the
    context counts of 2-3 player games, _pearce (its LP weighs the contexts)
    finds a mixture exactly when the mixture-side LP of _mixture_dominates
    (which weighs the rows) has an optimum above 0, and every LP _pearce
    solves is Optimal."""
    submitted = _recorded_lps(monkeypatch)
    rng = random.Random(26)
    eliminated = 0
    for _ in range(300):
        m = math.prod(rng.randint(1, 4) for _ in range(rng.randint(1, 2)))
        rows = [tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(rng.randint(2, 6))]
        dominated = rng.randrange(len(rows))
        support = sorted(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
        for weak in (False, True):
            found, belief = dominance._pearce(rows, support, dominated, weak)
            reference = _mixture_dominates([rows[d] for d in support], rows[dominated],
                                           strict=not weak)
            assert (found is not None) == reference
            assert (belief is None) == reference  # exactly one side of the lemma
            eliminated += found is not None
    assert len(submitted) == 600 and 100 < eliminated < 500
    assert all(isinstance(res, Optimal) for _, res in submitted)


def test_brc_and_msd_submit_the_same_pearce_lp(monkeypatch):
    """Pearce's lemma as code: brc_l and msd_l at the same (G, i, s) solve one
    LP each, with equal rows; its point proves survival (s in the weakly
    dominated best response game) and its dual at value 0 proves
    elimination (B in threebytwo). mwd_l, where it needs an LP, solves the
    same rows with one more column t, the weight every context keeps, and
    maximises t in place of the total weight. In the last two games
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
        m = msd_lp.num_vars
        assert msd_lp.objective == [1] * m
        assert msd_lp.rows[-1] == ([1] * m, 1)
        assert all(rhs == 0 for _, rhs in msd_lp.rows[:-1])
        if mwd_lps:
            assert mwd_lps[0].objective == [0] * m + [1]
            assert mwd_lps[0].rows == [
                (coeffs + [sum(coeffs)], rhs) for coeffs, rhs in msd_lp.rows[:-1]
            ] + [([1] * m + [m], 1)]


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
    """(game, strategy, the builtins that eliminate it) past the pure
    prefilter: B in threebytwo by the dual of _pearce's LP at value 0, s
    under WEAKLY_DOMINATED by the weak LP's dual at t = 0, and C in pd by
    the scan that finds its pure dominator D."""
    return [(TBT, TBT.index(0, "B"), ("msd_l", "mwd_l", "brc_l")),
            (_row_game(WEAKLY_DOMINATED), 0, ("mwd_l",)),
            (PD, 0, ("msd_l", "mwd_l", "brc_l"))]


def test_set_wise_decisions_build_no_mixed_strategy(monkeypatch):
    # msd, mwd and correlated br only ask whether _pearce finds a witness,
    # so their eliminations build no MixedStrategy, through the builtins and
    # through undominated and best_responses called directly
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
                assert dominance.undominated(rows, support, (s,), name == "mwd_l",
                                             mixed=True) == []
    assert submitted and all(isinstance(res, Optimal) and res.value == 0
                             for _, res in submitted)
    assert built == []


def test_mixed_solves_of_the_bundled_games_build_no_fraction(monkeypatch):
    # _pearce reads the optimum's int numerators, so msd, mwd and correlated
    # best response solves run in ints from the payoff rows to the re-checks
    games = {path.name: load_game_file(path) for path in DATA.glob("*.game")}
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    post_init = MixedStrategy.__post_init__

    def counted_mixture(self):
        built.append(self)
        post_init(self)

    submitted = _recorded_lps(monkeypatch)
    monkeypatch.setattr(MixedStrategy, "__post_init__", counted_mixture)
    monkeypatch.setattr(Fraction, "__new__", counted)
    outcomes = {(path, name): iterate_to_outcome(profile_named(game, name)).outcome
                for path, game in games.items() for name in ("msd_l", "mwd_l", "brc_l")}
    monkeypatch.undo()
    assert built == []
    assert submitted and all(isinstance(res, Optimal) for _, res in submitted)
    # B in threebytwo goes by a mixture, the dual of a value-0 optimum
    tbt = games["threebytwo.game"]
    for name in ("msd_l", "mwd_l", "brc_l"):
        assert {tbt.name(0, s) for s in outcomes["threebytwo.game", name].sets[0]} == {"T", "M"}


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


def _small_tie_games(rng, count):
    """count games of 2-3 players with 1-4 strategies each, at most 8 in
    all so every restriction can be enumerated, and payoffs 0-3, whose ties
    are where weak and strict domination part."""
    for _ in range(count):
        n = rng.randint(2, 3)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        while sum(sizes) > 8:
            sizes = [rng.randint(1, 4) for _ in range(n)]
        names = tuple(tuple(f"s{k}" for k in range(size)) for size in sizes)
        drawn = [rng.randint(0, 3) for _ in range(math.prod(sizes) * n)]
        yield Game.from_columns(names, [drawn[i::n] for i in range(n)], [1] * n)


def test_the_set_wise_rule_equals_the_witness_searches():
    """undominated(..., mixed=True) keeps exactly the candidates for which
    mixed_strictly_dominates_exists (weak: mixed_weakly_dominates_exists)
    finds no mixture over the restriction's own part, and correlated
    best_responses keeps exactly the strict ones (Pearce's lemma)."""
    pairs = 0
    for game in _small_tie_games(random.Random(25), 40):
        for G in all_restrictions(game):
            for i in range(game.n):
                rivals, rows = G.sets[i], G.rows(i)
                if not rivals:
                    continue
                candidates = list(game.strategies(i))
                kept = {}
                for weak, search in ((False, mixed_strictly_dominates_exists),
                                     (True, mixed_weakly_dominates_exists)):
                    kept[weak] = [s for s in candidates if search(game, G, i, rivals, s) is None]
                    assert sorted(dominance.undominated(rows, rivals, candidates, weak,
                                                        mixed=True)) == kept[weak]
                assert sorted(dominance.best_responses(
                    game, G, rows, i, rivals, candidates, "correlated")) == kept[False]
                pairs += 1
    assert pairs > 1000


def test_an_empty_own_part_keeps_msd_and_brc_apart():
    """Where the owner's part is empty there are no rivals: nothing dominates,
    so msd_l holds everywhere, while brc_l still needs a belief, which
    exists exactly when every opponent part is non-empty."""
    games = [TBT, *_small_tie_games(random.Random(7), 3)]
    checked = 0
    for game in games:
        for G in all_restrictions(game):
            for i in range(game.n):
                if G.sets[i]:
                    continue
                opponents_present = all(part for j, part in enumerate(G.sets) if j != i)
                msd, brc = builtin(game, "msd_l", i), builtin(game, "brc_l", i)
                for s in game.strategies(i):
                    assert msd.holds(s, G)
                    assert brc.holds(s, G) == opponents_present
                    checked += 1
    assert checked > 100


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
