"""Optimality properties: the predicates players use to keep strategies.

A property belongs to one player of one game and is evaluated at a strategy
and a restriction. The eleven builtin names follow the local/global split:
local variants range over the restriction, global ones over the full game.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from . import dominance
from .games import Restriction, all_restrictions, subsets_of


class NonMonotonicPropertyError(ValueError):
    """A monotone profile was required but a counterexample pair exists."""


@dataclass(eq=False)
class OptimalityProperty:
    name: str
    player: int
    game: object
    evaluator: Callable
    provenance: str = "builtin"
    # Theorems the constructor vouches for; False means "not proven", and the
    # guards then enumerate. own_independent is condition A.
    monotone: bool = False
    own_independent: bool = False
    # rule(G, candidates) -> the candidates at which the property holds on G,
    # deciding them together; None filters the candidates through evaluator.
    rule: Optional[Callable] = None

    def holds(self, s_i, restriction):
        if restriction.game is not self.game:
            raise ValueError("restriction belongs to a different game")
        if not 0 <= s_i < self.game.strategy_count(self.player):
            raise ValueError(f"strategy index {s_i} out of range")
        return bool(self.evaluator(s_i, restriction))

    def survivors(self, restriction, candidates):
        """The frozenset of candidates (strategy indices of the owner) at which
        the property holds on the restriction; refused as holds refuses them."""
        if restriction.game is not self.game:
            raise ValueError("restriction belongs to a different game")
        if not candidates:
            return frozenset()
        # the restriction's own part was checked when it was built
        if candidates is not restriction.sets[self.player]:
            count = self.game.strategy_count(self.player)
            if not (0 <= min(candidates) and max(candidates) < count):
                for s in candidates:
                    if not 0 <= s < count:
                        raise ValueError(f"strategy index {s} out of range")
        if self.rule is None:
            return frozenset(s for s in candidates if self.evaluator(s, restriction))
        return frozenset(self.rule(restriction, candidates))

    def __repr__(self):
        return f"<{self.name} player {self.player + 1}>"


BUILTIN_NAMES = (
    "sd_l", "sd_g", "msd_l", "msd_g", "wd_l", "wd_g",
    "mwd_l", "mwd_g", "br_l", "br_g", "brc_l",
)

MONOTONE_BUILTINS = ("sd_g", "msd_g", "br_g")


def builtin(game, name, i, belief_class=None):
    """Construct one of the builtin properties for player i."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown property {name!r}")
    if belief_class is not None and name not in ("br_l", "br_g"):
        raise ValueError(f"{name} does not take a belief class")
    local = name.endswith("_l")
    everyone = game.full_restriction().sets[i]
    key = name  # the verdicts a global builtin keeps on the cut rows

    # decide(G, rows, rivals, candidates): the candidates kept against the
    # rivals, given player i's cut rows on G. holds asks it about one
    # strategy, with no shared verdicts, so the oracles test the decision.
    def evaluator(s, G):
        return s in decide(G, G.rows(i), G.sets[i] if local else everyone, (s,))

    if name.startswith("br"):
        cls = "correlated" if name == "brc_l" else belief_class or "pure"
        key = (name, cls)

        def decide(G, rows, rivals, candidates):
            return dominance.best_responses(game, G, rows, i, rivals, candidates, cls)

    else:  # sd, wd, msd, mwd
        weak = "wd" in name
        mixed = name[0] == "m"

        def decide(G, rows, rivals, candidates):
            return dominance.undominated(rows, rivals, candidates, weak, mixed)

        if not mixed:
            relation = dominance.row_weakly_dominates if weak else dominance.row_strictly_dominates

            def evaluator(s, G):  # the plain rival scan: the reference for undominated
                rows = G.rows(i)
                rivals = map(rows.__getitem__, G.sets[i] if local else everyone)
                return not any(map(relation, rivals, itertools.repeat(rows[s])))

    def rule(G, candidates):
        rows = G.rows(i)
        if local:
            return decide(G, rows, G.sets[i], candidates)
        return _decided_once(rows, key, candidates,
                             lambda fresh: decide(G, rows, everyone, fresh))

    return OptimalityProperty(name, i, game, evaluator, monotone=name in MONOTONE_BUILTINS,
                              own_independent=name.endswith("_g"), rule=rule)


def _decided_once(rows, key, candidates, decide):
    """The candidates at which a global builtin holds, given the cut rows of
    the restriction. Such a builtin reads the rows, the opponents' part and
    its owner's whole set and nothing of the owner's own part (condition A
    by construction), so the strategies asked about and those kept are
    stored on the rows under key, and decide(strategies) runs only for the
    candidates that no restriction with the same opponents' part has asked
    about yet."""
    candidates = frozenset(candidates)
    asked, kept = rows.verdicts.get(key, (frozenset(), frozenset()))
    fresh = candidates - asked
    if fresh:
        asked, kept = asked | fresh, kept.union(decide(fresh))
        rows.verdicts[key] = asked, kept
    return kept & candidates


def profile_named(game, names, belief_class=None):
    """A property per player from one shared name or a per-player list."""
    if isinstance(names, str):
        names = [part.strip() for part in names.split(",")]
    if len(names) == 1:
        names = list(names) * game.n
    if len(names) != game.n:
        raise ValueError(f"expected 1 or {game.n} property names, got {len(names)}")
    return tuple(builtin(game, nm, i, belief_class) for i, nm in enumerate(names))


def constant_property(game, i, value=True, name=None):
    return OptimalityProperty(
        name or f"const_{str(value).lower()}", i, game, lambda s, G: value, "test",
        monotone=True, own_independent=True,
    )


def value_table(prop, budget=10):
    """Property values over every restriction, keyed by (strategy, sets)."""
    game = prop.game
    table = {}
    for G in all_restrictions(game, budget=budget):
        for s in game.strategies(prop.player):
            table[(s, G.sets)] = prop.holds(s, G)
    return table


@dataclass(frozen=True)
class MonotonicityReport:
    monotonic: bool
    counterexample: Optional[tuple] = None  # (s_i, smaller Restriction, larger Restriction)


def is_monotonic_on(prop, budget=10):
    """Exhaustively check that growing the restriction never loses the property.

    It is enough to check cover pairs (one strategy added), since any
    inclusion is a chain of single additions.
    """
    game = prop.game
    table = value_table(prop, budget=budget)
    for G in all_restrictions(game, budget=budget):
        for j in range(game.n):
            for extra in game.strategies(j):
                if extra in G.sets[j]:
                    continue
                bigger = tuple(
                    part | {extra} if j2 == j else part for j2, part in enumerate(G.sets)
                )
                for s in game.strategies(prop.player):
                    if table[(s, G.sets)] and not table[(s, bigger)]:
                        return MonotonicityReport(
                            False, (s, G, Restriction(game, bigger))
                        )
    return MonotonicityReport(True)


def require_monotone(profile, budget=10):
    """Guard used by fixpoint machinery; raises with the counterexample."""
    for prop in profile:
        if prop.monotone:
            continue
        report = is_monotonic_on(prop, budget=budget)
        if not report.monotonic:
            s, small, big = report.counterexample
            raise NonMonotonicPropertyError(
                f"non-monotonic property {prop.name} for player {prop.player + 1}: "
                f"holds at {prop.game.name(prop.player, s)} on {small.describe()} "
                f"but not on {big.describe()}"
            )


@dataclass(frozen=True)
class ConditionAReport:
    independent: bool
    counterexample: Optional[tuple] = None  # (s_i, G, G') differing in own component


def satisfies_condition_A(prop, budget=10):
    """Does the property ignore the owner's own component of the restriction?"""
    game = prop.game
    i = prop.player
    table = value_table(prop, budget=budget)
    others = [list(subsets_of(game.strategies(j))) for j in range(game.n) if j != i]
    own_sets = list(subsets_of(game.strategies(i)))
    for ctx in itertools.product(*others):
        def with_own(part):
            sets = list(ctx)
            sets.insert(i, part)
            return tuple(sets)

        for s in game.strategies(i):
            base = table[(s, with_own(own_sets[0]))]
            for part in own_sets[1:]:
                if table[(s, with_own(part))] != base:
                    return ConditionAReport(
                        False,
                        (s, Restriction(game, with_own(own_sets[0])),
                         Restriction(game, with_own(part))),
                    )
    return ConditionAReport(True)


def satisfies_singleton_truth(prop):
    """phi_i(s_i, {s}) must hold at the point restriction of every profile."""
    game = prop.game
    for profile in game.profiles():
        point = Restriction(game, tuple(frozenset([s]) for s in profile))
        if not prop.holds(profile[prop.player], point):
            return False
    return True
