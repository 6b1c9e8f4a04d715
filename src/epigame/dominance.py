"""Dominance relations and best responses on restrictions of a game.

Contexts come from the opponents' part of a restriction; the comparison and
belief sets are passed explicitly so local and global property variants can
share one implementation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import ge, gt, sub

from .games import (
    CorrelatedBelief,
    MixedStrategy,
    expected_payoff,
    point_mass,
)
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


def _pure_best_response(rows, s_i, rivals, strict=False):
    """Is s_i at least as good as (strict: better than) every rival in some context?"""
    mine = rows[s_i]
    if not rivals:
        return bool(mine)
    best = rows[rivals[0]] if len(rivals) == 1 else map(max, *(rows[s] for s in rivals))
    return any(map(gt if strict else ge, mine, best))


def mixed_strictly_dominates_exists(game, context, i, support, dominated):
    """Search for a mixed strategy over support strictly dominating dominated.

    Returns the witness MixedStrategy or None. A pure best response within
    support is undominated; otherwise _pearce decides.
    """
    support = sorted(support)
    if not support:
        raise ValueError("empty support")
    rows = context.rows(i)
    if not rows[dominated]:
        return point_mass(game, i, support[0])
    # No mixture over support beats dominated where it is a pure best response.
    if _pure_best_response(rows, dominated, support):
        return None
    return _pearce(game, context, i, support, dominated)


def _pearce(game, context, i, support, dominated, weak=False):
    """A mixture over the sorted support strictly (weak: weakly) dominating
    dominated, or None. The caller has checked that dominated has a
    non-empty row and is no pure best response (weak: no unique strict one)
    within support.

    A pure dominator is its own witness. Otherwise one LP asks for a
    correlated belief p over the contexts against which dominated does at
    least as well as every strategy in support; with weak set, p = q + t
    with q >= 0 and the LP maximises t. By Pearce's lemma there is such a
    belief (weak: one with full support, t > 0) exactly when no mixture
    dominates; it is re-checked by expected payoffs. Otherwise the support's
    entries of the dual certificate, normalised, are the dominating mixture,
    re-checked by strictly_dominates or weakly_dominates: Infeasible.ray when
    there is no belief, the optimum's dual when t = 0. Both are nonnegative
    there, as standard_form negates these '>=' rows.
    """
    rows = context.rows(i)
    mine = rows[dominated]
    dominates = weakly_dominates if weak else strictly_dominates
    row_dominates = row_weakly_dominates if weak else row_strictly_dominates
    for d in support:
        if row_dominates(rows[d], mine):
            return point_mass(game, i, d)
    m = len(mine)
    lp = LinearProgram(m + weak, [0] * m + [1] * weak)  # weak: the last column is t
    for r in support:
        gap = list(map(sub, mine, rows[r]))
        lp.add(gap + [sum(gap)] * weak, ">=", 0)
    lp.add([1] * m + [m] * weak, "=", 1)
    res = solve(lp)
    if isinstance(res, Optimal) and (res.value or not weak):
        t, profiles = res.value, context.opponent_profiles(i)
        belief = CorrelatedBelief(game, i, {c: w + t for c, w in zip(profiles, res.point) if w + t})
        value = expected_payoff(game, i, dominated, belief)
        if any(value < expected_payoff(game, i, r, belief) for r in support):
            raise AssertionError("LP belief does not support the strategy")
        return None
    ray = res.dual if isinstance(res, Optimal) else res.ray
    total = sum(ray[:len(support)])
    witness = MixedStrategy(game, i, {s: u / total for s, u in zip(support, ray) if u})
    if not dominates(game, context, i, witness, dominated):
        raise AssertionError("LP mixture does not dominate")
    return witness


def mixed_weakly_dominates_exists(game, context, i, support, dominated):
    """Search for a weakly dominating mixture over support; None if there is none.

    A strict, unique best response within support is undominated; otherwise
    _pearce decides.
    """
    support = sorted(support)
    if not support:
        raise ValueError("empty support")
    rows = context.rows(i)
    if not rows[dominated]:
        return None
    # Where dominated is the unique best response within support, a mixture
    # at least as good must be dominated itself, which is better nowhere.
    if _pure_best_response(rows, dominated, [s for s in support if s != dominated], strict=True):
        return None
    return _pearce(game, context, i, support, dominated, weak=True)


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
    if grid_denominator is not None and grid_denominator < 1:
        raise BeliefClassError(f"grid denominator must be at least 1, got {grid_denominator}")
    if belief_class == "mixed":
        if game.n == 2:
            belief_class = "correlated"
        elif grid_denominator is None:
            raise BeliefClassError(
                "independent mixed beliefs with more than two players: "
                "supply grid_denominator for an approximate grid search"
            )
    elif belief_class not in ("pure", "correlated"):
        raise BeliefClassError(f"unknown belief class {belief_class!r}")
    rivals = comparison.strategies(i)
    rows = beliefs_in.rows(i)
    if not rows[s_i]:  # no opponent profile to hold a belief about
        return False
    if _pure_best_response(rows, s_i, rivals):
        return True
    if belief_class == "pure" or _pearce(game, beliefs_in, i, rivals, s_i) is not None:
        return False
    if belief_class == "correlated":
        return True
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
