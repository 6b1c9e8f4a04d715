"""The elimination operator T and its fixpoint machinery.

T keeps, per player, the strategies of the current restriction that satisfy
that player's optimality property there. T is always deflationary, so on
finite games iteration reaches a fixpoint; for monotone profiles that
fixpoint is the largest one, which the post-fixpoint enumeration verifies
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .games import (
    Restriction,
    all_restrictions,
    restriction_join,
    restriction_leq,
)
from .optimality import require_monotone


def _check_profile(profile, game):
    if len(profile) != game.n:
        raise ValueError(f"profile needs {game.n} properties, got {len(profile)}")
    for i, prop in enumerate(profile):
        if prop.player != i:
            raise ValueError(f"property at position {i} belongs to player {prop.player + 1}")
        if prop.game is not game:
            raise ValueError("profile properties belong to a different game")


def apply_T(profile, restriction):
    """One elimination round: each player's property decides their whole set at once."""
    game = restriction.game
    _check_profile(profile, game)
    sets = tuple(
        prop.survivors(restriction, part) for prop, part in zip(profile, restriction.sets)
    )
    return Restriction(game, sets)


@dataclass(frozen=True, eq=False)
class EliminationTrace:
    profile: tuple
    stages: tuple

    @property
    def outcome(self):
        return self.stages[-1]

    @property
    def closure_ordinal(self):
        return len(self.stages) - 1


class NotShrinkingError(ValueError):
    """A step of a greatest-fixpoint iteration did not shrink its argument."""


def descend(top, step, leq):
    """The chain top, step(top), ... down to the first value that step keeps.

    On a finite lattice, for a monotone step, its last value is the greatest
    fixpoint below top. A step that leaves its argument (not leq) shows the
    map is not monotone; that raises instead of returning a wrong answer.
    """
    chain = [top]
    while True:
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            return chain
        if not leq(nxt, chain[-1]):
            raise NotShrinkingError("fixpoint iteration is not shrinking")
        chain.append(nxt)


def iterate_to_outcome(profile, start=None):
    """Iterate T from the full game (or a given restriction) to its fixpoint."""
    if start is None:
        start = profile[0].game.full_restriction()
    stages = descend(start, lambda G: apply_T(profile, G), restriction_leq)
    return EliminationTrace(tuple(profile), tuple(stages))


def serialize_trace(trace):
    lines = [f"stage {k}: {G.describe()}" for k, G in enumerate(trace.stages)]
    return "\n".join(lines)


def largest_fixpoint_via_postfixpoints(profile, budget=10):
    """Join of all restrictions G with G <= T(G); oracle route to the outcome.

    Only meaningful for monotone profiles, so the guard runs first. Past
    budget strategies in total the enumeration is refused.
    """
    game = profile[0].game
    _check_profile(profile, game)
    require_monotone(profile, budget=budget)
    post = [
        G for G in all_restrictions(game, budget) if restriction_leq(G, apply_T(profile, G))
    ]
    return restriction_join(post) if post else game.empty_restriction()


class LemmaHypothesisError(ValueError):
    """T1(G) was not included in T2(G); carries the offending restriction."""

    def __init__(self, restriction):
        super().__init__(
            f"pointwise inclusion fails at {restriction.describe()}"
        )
        self.restriction = restriction


@dataclass(frozen=True)
class LemmaIncReport:
    holds: bool
    hypothesis_checked_on: int
    outcome_small: Restriction
    outcome_large: Restriction


def check_lemma_inc(profile1, profile2, budget=10):
    """If T1 <= T2 pointwise and T2 is monotone, outcomes are included too.

    The hypothesis is verified on every restriction when the game fits the
    enumeration budget, and always on all stages of both iterations.
    """
    game = profile1[0].game
    _check_profile(profile1, game)
    _check_profile(profile2, game)
    require_monotone(profile2, budget=budget)
    trace1 = iterate_to_outcome(profile1)
    trace2 = iterate_to_outcome(profile2)
    candidates = list(trace1.stages) + list(trace2.stages)
    total = sum(game.strategy_count(i) for i in range(game.n))
    if total <= budget:
        candidates.extend(all_restrictions(game))
    checked = 0
    for G in candidates:
        checked += 1
        if not restriction_leq(apply_T(profile1, G), apply_T(profile2, G)):
            raise LemmaHypothesisError(G)
    return LemmaIncReport(
        restriction_leq(trace1.outcome, trace2.outcome),
        checked,
        trace1.outcome,
        trace2.outcome,
    )
