"""Dominance relations and best responses on restrictions of a game.

Contexts come from the opponents' part of a restriction; the comparison and
belief sets are passed explicitly so local and global property variants can
share one implementation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import repeat
from operator import and_, eq, ge, gt, mul, sub

from .games import MixedStrategy, expected_payoff, point_mass
from .lp import LinearProgram, Optimal, solve


class BeliefClassError(ValueError):
    """Raised when a belief class is unsupported for the game at hand."""


def _rows(context, i, dominator, dominated):
    """The kernel rows of dominator and dominated on the context; a mixture's
    row is the weighted sum of its support's rows."""
    rows = context.rows(i)
    if isinstance(dominator, MixedStrategy):
        parts = [(w, rows[s]) for s, w in dominator.weights.items() if w]
        mixed = tuple(sum(w * row[x] for w, row in parts) for x in range(len(rows[dominated])))
        return mixed, rows[dominated]
    return rows[dominator], rows[dominated]


def row_strictly_dominates(a, b):
    """Row a is greater than row b in every context (vacuously when empty)."""
    return all(map(gt, a, b))


def row_weakly_dominates(a, b):
    """Row a is at least row b in every context and greater in some."""
    return a != b and all(map(ge, a, b))


def strictly_dominates(game, context, i, dominator, dominated):
    """dominator beats dominated in every joint opponent strategy of the context.

    Vacuously true when the context is empty on the opponents' side.
    """
    return row_strictly_dominates(*_rows(context, i, dominator, dominated))


def weakly_dominates(game, context, i, dominator, dominated):
    """At least as good everywhere and strictly better somewhere in the context."""
    return row_weakly_dominates(*_rows(context, i, dominator, dominated))


def _reached_alone(rival_rows, best):
    """Per context, whether exactly one of the rows reaches best there."""
    return tuple(map(eq, map(tuple.count, zip(*rival_rows), best), repeat(1)))


def _best_responders(rows, rivals, candidates, strict=False):
    """Split candidates into those at least as good as every rival (strict:
    better than every other rival) in some context, and the rest, on the
    cut rows of a restriction and for a frozenset of rivals.

    The one pure prefilter of every decision here. By the pure half of
    Pearce's lemma a hit is a best response, and no mixture over the rivals
    strictly (strict: weakly) dominates it. The rivals' context-wise maximum
    is built once per cut and rival set. With no rivals, a candidate
    qualifies wherever it has a context. Returns two lists.
    """
    hits, rest = [], []
    if not rivals:
        for s in candidates:
            (hits if rows[s] else rest).append(s)
        return hits, rest
    best = rows.column_max(rivals)
    alone = None  # built when a candidate first needs it
    for s in candidates:
        row = rows[s]
        if not strict:
            hit = any(map(ge, row, best))
        elif s not in rivals:
            hit = any(map(gt, row, best))
        elif any(map(eq, row, best)):  # alone at the maximum, where every other rival is below
            if alone is None:
                alone = _reached_alone(list(map(rows.__getitem__, rivals)), best)
            hit = any(map(and_, map(eq, row, best), alone))
        else:
            hit = False
        (hits if hit else rest).append(s)
    return hits, rest


def undominated(rows, rivals, candidates, weak=False, mixed=False):
    """The candidates that no rival (mixed: no mixture over the rivals)
    strictly (weak: weakly) dominates, on the cut rows of a restriction and
    for a frozenset of rivals: the one set-wise dominance rule.

    _best_responders keeps its hits; only the rest are scanned against every
    rival with row_strictly_dominates (weak: row_weakly_dominates). The scan
    also keeps, under weak, a row equal to the rivals' maximum: no rival
    exceeds it anywhere. Under mixed, _pearce decides the survivors with a
    context; one without survives the scan only under weak, and stays.
    """
    if not rivals:
        return candidates
    kept, rest = _best_responders(rows, rivals, candidates, strict=weak)
    if rest:
        rival_rows = list(map(rows.__getitem__, rivals))
        dominates = row_weakly_dominates if weak else row_strictly_dominates
        rest = [s for s in rest if not any(map(dominates, rival_rows, repeat(rows[s])))]
        if mixed:
            support = sorted(rivals)
            rest = [s for s in rest if not rows[s] or _pearce(rows, support, s, weak) is None]
        kept += rest
    return kept


def mixed_strictly_dominates_exists(game, context, i, support, dominated):
    """Search for a mixed strategy over support strictly dominating dominated.

    Returns the witness MixedStrategy or None. A pure best response within
    support is undominated; otherwise _pearce decides.
    """
    return _mixed_dominator(game, context, i, support, dominated, weak=False)


def mixed_weakly_dominates_exists(game, context, i, support, dominated):
    """Search for a weakly dominating mixture over support; None if there is none.

    A strict, unique best response within support is undominated; otherwise
    _pearce decides.
    """
    return _mixed_dominator(game, context, i, support, dominated, weak=True)


def _mixed_dominator(game, context, i, support, dominated, weak):
    """The search both mixed_*_dominates_exists run; weak picks the relation.
    A pure dominator, the first in index order, is returned as its point mass."""
    rivals = frozenset(support)
    if not rivals:
        raise ValueError("empty support")
    rows = context.rows(i)
    mine = rows[dominated]
    if weak and not mine:  # with no context, weak domination is impossible
        return None
    # No mixture over support beats dominated where it is a pure (weak: unique) best response.
    if _best_responders(rows, rivals, (dominated,), strict=weak)[0]:
        return None
    support = sorted(rivals)
    row_dominates = row_weakly_dominates if weak else row_strictly_dominates
    for d in support:
        if row_dominates(rows[d], mine):
            return point_mass(game, i, d)
    weights = _pearce(rows, support, dominated, weak)
    if weights is None:
        return None
    total = sum(weights.values())
    return MixedStrategy(game, i, {s: Fraction(u, total) for s, u in weights.items()})


def _pearce(rows, support, dominated, weak=False):
    """The int weights {strategy: weight} of a mixture over the sorted
    support that strictly (weak: weakly) dominates dominated on a player's
    cut rows, or None; the mixture is each weight over their sum, and only
    strategies of positive weight are keys. The caller has checked that
    dominated has a non-empty row, is no pure best response (weak: no unique
    strict one) within support and that no strategy in support dominates it.

    One LP on the int kernel rows, whose primal and dual give both sides of
    Pearce's lemma. It weighs the contexts with p >= 0 under one gap row per
    other strategy r in support, (row_r - dominated's row) . p <= 0, and
    sum p <= 1, and maximises sum p; with weak set, p = q + t with q >= 0,
    the last row is sum q + m t <= 1 and the LP maximises t. Its rows are
    '<=' rows with rhs 0 or 1, the slack form lp.solve takes: the simplex
    starts at the origin, and the last row bounds every variable, so the
    answer is a certified Optimal, never UNBOUNDED.
    A value above 0 means the point is a belief (weak: one with full support)
    against which dominated does at least as well as every other strategy in
    support, and by Pearce's lemma no mixture dominates. At value 0 the dual
    on the gap rows is the dominating mixture: nonnegative, as these are
    '<=' rows, and covering every column with the last row's dual at 0.
    Either answer is read from the Optimal, whose fields are the int
    numerators _certify checked and their denominators, and re-checked in
    integers on the kernel rows before it is used: the belief scaled to
    int weights, the mixture to int weights U whose row sum_s U_s row_s must
    dominate (sum U) times dominated's row. Those U are the weights returned,
    so a caller that only asks whether a witness exists builds no Fraction
    and no MixedStrategy.
    """
    mine = rows[dominated]
    # dominated's own gap row would be 0 <= 0, whose dual entry is 0
    others = [r for r in support if r != dominated]
    m = len(mine)
    lp = LinearProgram(m + weak, [0] * m + [1] if weak else [1] * m)  # weak: t is last
    for r in others:
        gap = list(map(sub, rows[r], mine))
        if weak:
            gap.append(sum(gap))
        lp.add(gap, 0)
    lp.add([1] * m + [m] * weak, 1)
    res = solve(lp)
    if not isinstance(res, Optimal):
        raise AssertionError("Pearce LP has no optimum")
    value, point, total, dual, _ = res
    if value:
        t = point[m] if weak else 0
        weights = [w + t for w in point[:m]]  # p = q + t, times total
        if any(w < 0 for w in weights) or sum(weights) != total:
            raise AssertionError("LP belief is not a distribution")
        value = _dot(weights, mine)
        if any(value < _dot(weights, rows[r]) for r in others):
            raise AssertionError("LP belief does not support the strategy")
        return None
    weights = dual[:len(others)]
    total = sum(weights)
    if any(u < 0 for u in weights) or total <= 0:
        raise AssertionError("LP mixture is not a distribution")
    mixed = tuple(_dot(weights, column) for column in zip(*(rows[s] for s in others)))
    row_dominates = row_weakly_dominates if weak else row_strictly_dominates
    if not row_dominates(mixed, tuple(total * x for x in mine)):
        raise AssertionError("LP mixture does not dominate")
    return {s: u for s, u in zip(others, weights) if u}


def _dot(weights, row):
    return sum(map(mul, weights, row))


def _grid_mixtures(game, player, strategies, denominator_bound):
    """All distributions over strategies with weights of denominator <= bound."""
    strategies = sorted(strategies)
    seen = set()
    for d in range(1, denominator_bound + 1):
        for combo in itertools.combinations_with_replacement(range(len(strategies)), d):
            counts = [combo.count(j) for j in range(len(strategies))]
            weights = tuple(Fraction(c, d) for c in counts)
            if weights in seen:
                continue
            seen.add(weights)
            yield MixedStrategy(
                game, player, {s: w for s, w in zip(strategies, weights) if w}
            )


def is_best_response(game, comparison, beliefs_in, i, s_i, belief_class="pure",
                     grid_denominator=None):
    """Is s_i at least as good as every strategy in comparison_i against some
    belief held in beliefs_in?

    belief_class: 'pure' (joint opponent strategies), 'correlated'
    (distributions over joint opponent strategies), or 'mixed' (independent
    per-opponent mixtures; exact for two players via the correlated reduction,
    otherwise needs grid_denominator and is approximate). The class is
    checked before the beliefs, so an empty belief set does not hide a bad one;
    so is grid_denominator, which must be at least 1 when given.

    Every class holds the point masses on joint opponent strategies, so a pure
    best response answers yes. Every class lies inside the correlated beliefs,
    which Pearce's LP in _pearce decides with a checked certificate either
    way; only the grid searches further.
    """
    return s_i in best_responses(game, beliefs_in, beliefs_in.rows(i), i, comparison.sets[i],
                                 (s_i,), belief_class, grid_denominator)


def best_responses(game, beliefs_in, rows, i, rivals, candidates, belief_class="pure",
                   grid_denominator=None):
    """The candidates that is_best_response accepts against the frozenset of
    rivals, given beliefs_in and player i's cut rows on it, decided together.
    By Pearce's lemma the correlated ones are those undominated by mixtures;
    the grid searches only among those that are no pure best response."""
    belief_class = _belief_class(game, belief_class, grid_denominator)
    if belief_class == "pure" or not rivals:
        return _best_responders(rows, rivals, candidates)[0]
    if belief_class == "correlated":
        return undominated(rows, rivals, candidates, mixed=True)
    kept, rest = _best_responders(rows, rivals, candidates)
    return kept + [s for s in undominated(rows, rivals, rest, mixed=True)
                   if _grid_best_response(game, beliefs_in, i, s, rivals, grid_denominator)]


def _belief_class(game, belief_class, grid_denominator):
    """The class is_best_response decides: 'pure', 'correlated', or 'mixed'
    for the grid search. Raises BeliefClassError as is_best_response documents."""
    if grid_denominator is not None and grid_denominator < 1:
        raise BeliefClassError(f"grid denominator must be at least 1, got {grid_denominator}")
    if belief_class == "mixed":
        if game.n == 2:
            return "correlated"
        if grid_denominator is None:
            raise BeliefClassError(
                "independent mixed beliefs with more than two players: "
                "supply grid_denominator for an approximate grid search"
            )
    elif belief_class not in ("pure", "correlated"):
        raise BeliefClassError(f"unknown belief class {belief_class!r}")
    return belief_class


def _grid_best_response(game, beliefs_in, i, s_i, rivals, grid_denominator):
    """Is s_i at least as good as every rival against some product of grid mixtures?"""
    opponents = [j for j in range(game.n) if j != i]
    grids = [
        list(_grid_mixtures(game, j, beliefs_in.strategies(j), grid_denominator))
        for j in opponents
    ]
    for belief in itertools.product(*grids):
        mine = expected_payoff(game, i, s_i, belief)
        if all(mine >= expected_payoff(game, i, s, belief) for s in rivals):
            return True
    return False
