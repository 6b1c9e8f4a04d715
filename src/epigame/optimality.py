"""Optimality properties: the predicates players use to keep strategies.

A property belongs to one player of one game and is its set-wise rule: given
a restriction and some of its owner's strategies, the ones it keeps there.
The eleven builtin names follow the local/global split: local variants range
over the restriction, global ones over the full game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import dominance
from .games import Restriction, all_restrictions


class NonMonotonicPropertyError(ValueError):
    """A monotone profile was required but a counterexample pair exists."""


@dataclass(eq=False)
class OptimalityProperty:
    name: str
    player: int
    game: object
    # rule(G, candidates) -> the candidates at which the property holds on G,
    # deciding them together: the one way the property decides.
    rule: Callable
    # Theorems the constructor vouches for; False means "not proven", and the
    # guards then enumerate. own_independent is condition A.
    monotone: bool = False
    own_independent: bool = False

    def holds(self, s_i, restriction):
        """The rule asked about one strategy."""
        return s_i in self.survivors(restriction, (s_i,))

    def survivors(self, restriction, candidates):
        """The frozenset of candidates (strategy indices of the owner) at which
        the property holds on the restriction, decided by its rule."""
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
    # A global builtin takes its owner's whole set as rivals, so it reads
    # nothing of the owner's own part (condition A by construction).
    everyone = frozenset(game.strategies(i))

    if name.startswith("br"):
        cls = "correlated" if name == "brc_l" else belief_class or "pure"

        def rule(G, candidates):
            return dominance.best_responses(G, i, G.sets[i] if local else everyone, candidates, cls)

    else:  # sd, wd, msd, mwd
        weak = "wd" in name
        mixed = name[0] == "m"

        def rule(G, candidates):
            return dominance.undominated(G.rows(i), G.sets[i] if local else everyone, candidates,
                                         weak, mixed)

    return OptimalityProperty(name, i, game, rule, monotone=name in MONOTONE_BUILTINS,
                              own_independent=name.endswith("_g"))


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
        name or f"const_{str(value).lower()}", i, game,
        lambda G, candidates: candidates if value else (), monotone=True, own_independent=True,
    )


def value_table(prop, budget=10):
    """What the rule keeps of all its owner's strategies, keyed by the sets of
    every restriction: the one enumeration the lattice oracles read."""
    everyone = prop.game.strategies(prop.player)
    return {G.sets: prop.survivors(G, everyone) for G in all_restrictions(prop.game, budget)}


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
    for sets, kept in table.items():
        for j, part in enumerate(sets):
            for extra in game.strategies(j):
                if extra in part:
                    continue
                bigger = sets[:j] + (part | {extra},) + sets[j + 1:]
                lost = kept - table[bigger]
                if lost:
                    return MonotonicityReport(
                        False, (min(lost), Restriction(game, sets), Restriction(game, bigger))
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
    contexts = {}  # the opponents' parts -> (sets, kept), own part smallest first
    for sets, kept in value_table(prop, budget=budget).items():
        contexts.setdefault(sets[:i] + sets[i + 1:], []).append((sets, kept))
    for (base, base_kept), *rest in contexts.values():
        for s in game.strategies(i):
            for sets, kept in rest:
                if (s in kept) != (s in base_kept):
                    return ConditionAReport(
                        False, (s, Restriction(game, base), Restriction(game, sets))
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
