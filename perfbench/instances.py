"""Seeded instance families for the benchmark.

Every generator is a pure function of its arguments: the same seed gives the
same payoff table or model, and so byte-identical files. Payoffs are Python
ints; the oracle in ``oracle.py`` reads these tables directly, and the files
the program sees are written through epigame's own serialisers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Table:
    """A finite game as the benchmark knows it: strategy names and int payoffs."""

    names: tuple  # names[i] -> tuple of strategy names of player i
    payoffs: dict  # profile (tuple of indices) -> tuple of ints

    @property
    def n(self):
        return len(self.names)

    @property
    def sizes(self):
        return tuple(len(part) for part in self.names)


@dataclass(frozen=True)
class Model:
    """An epistemic model over a Table: assignment[i][w], corr[i][w] (frozensets)."""

    table: Table
    state_names: tuple
    assignment: tuple
    corr: tuple
    level: str  # "knowledge" (partitions) or "belief" (non-reflexive)

    def profile_of(self, w):
        return tuple(part[w] for part in self.assignment)


PAYOFF_BOUND = 9  # random payoffs are ints in [-PAYOFF_BOUND, PAYOFF_BOUND]
TRAVELER_BONUS = 2
MAX_BLOCK = 16  # largest cell of a model's correspondence


def rng_for(seed, *labels):
    """An independent stream per (seed, labels); str seeds hash deterministically."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def random_game(rng, sizes):
    names = tuple(tuple(f"s{k}" for k in range(m)) for m in sizes)
    payoffs = {
        profile: tuple(rng.randint(-PAYOFF_BOUND, PAYOFF_BOUND) for _ in sizes)
        for profile in itertools.product(*(range(m) for m in sizes))
    }
    return Table(names, payoffs)


def traveler(n):
    """Traveler's dilemma with claims 1..n: the lower claim gets TRAVELER_BONUS,
    the higher pays it. Weak dominance and pure best response remove the top claim each
    round, so the closure ordinal is n - 1; nothing is strictly dominated."""
    names = tuple(tuple(f"c{k}" for k in range(1, n + 1)) for _ in range(2))
    payoffs = {}
    for a, b in itertools.product(range(n), repeat=2):
        ca, cb = a + 1, b + 1
        if ca == cb:
            payoffs[(a, b)] = (ca, cb)
        elif ca < cb:
            payoffs[(a, b)] = (ca + TRAVELER_BONUS, ca - TRAVELER_BONUS)
        else:
            payoffs[(a, b)] = (cb - TRAVELER_BONUS, cb + TRAVELER_BONUS)
    return Table(names, payoffs)


def guess(n, players):
    """Guess 2/3 of the average over guesses 0..n-1. The payoff is minus the
    distance to the target, scaled by 3 * players to stay integral, so high
    guesses are strictly dominated and the game is dominance solvable."""
    names = tuple(tuple(f"g{k}" for k in range(n)) for _ in range(players))
    payoffs = {}
    for profile in itertools.product(range(n), repeat=players):
        total = sum(profile)
        payoffs[profile] = tuple(-abs(3 * players * g - 2 * total) for g in profile)
    return Table(names, payoffs)


def relabel(table, rng):
    """The same game with each player's strategies listed in a random order.

    Names travel with their strategies, so answers are the same up to order;
    the program sees a different file and different strategy indices.
    """
    return _permute(table, [rng.sample(range(m), m) for m in table.sizes])


def _permute(table, orders):
    """The table whose strategy new of player i is its old strategy orders[i][new]."""
    names = tuple(
        tuple(part[old] for old in order) for part, order in zip(table.names, orders)
    )
    payoffs = {
        profile: table.payoffs[tuple(order[s] for order, s in zip(orders, profile))]
        for profile in itertools.product(*(range(m) for m in table.sizes))
    }
    return Table(names, payoffs)


def relabel_strategies(m, rng):
    """The same model over its game with each player's strategies reordered."""
    orders = [rng.sample(range(k), k) for k in m.table.sizes]
    new_of = [{old: new for new, old in enumerate(order)} for order in orders]
    return Model(
        _permute(m.table, orders),
        m.state_names,
        tuple(tuple(new[s] for s in part) for new, part in zip(new_of, m.assignment)),
        m.corr,
        m.level,
    )


def relabel_states(m, rng):
    """The same model with its states listed in a random order (names travel)."""
    order = rng.sample(range(len(m.state_names)), len(m.state_names))
    new_of = {old: new for new, old in enumerate(order)}
    return Model(
        m.table,
        tuple(m.state_names[old] for old in order),
        tuple(tuple(part[old] for old in order) for part in m.assignment),
        tuple(
            tuple(frozenset(new_of[v] for v in part[old]) for old in order)
            for part in m.corr
        ),
        m.level,
    )


def _blocks(rng, states):
    states = list(states)
    rng.shuffle(states)
    out = []
    pos = 0
    while pos < len(states):
        size = rng.randint(1, MAX_BLOCK)
        out.append(frozenset(states[pos : pos + size]))
        pos += size
    return out


def model(rng, table, num_states, level):
    """A model of exactly num_states states with random assignments.

    knowledge: each player's correspondence is a partition into blocks of at
    most MAX_BLOCK states. belief: half the states are partitioned that way and
    every other state points at a random block, so the frame is not reflexive.
    """
    if level not in ("knowledge", "belief"):
        raise ValueError(f"unknown level {level!r}")
    assignment = tuple(
        tuple(rng.randrange(m) for _ in range(num_states)) for m in table.sizes
    )
    corr = []
    for _ in range(table.n):
        if level == "knowledge":
            core, rest = list(range(num_states)), []
        else:
            order = list(range(num_states))
            rng.shuffle(order)
            cut = num_states // 2
            core, rest = sorted(order[:cut]), sorted(order[cut:])
        blocks = _blocks(rng, core)
        per_state = {w: b for b in blocks for w in b}
        for w in rest:
            per_state[w] = rng.choice(blocks)
        corr.append(tuple(per_state[w] for w in range(num_states)))
    names = tuple(f"w{w}" for w in range(num_states))
    return Model(table, names, assignment, tuple(corr), level)


# ---------- files, written with epigame's serialisers ----------


def to_game(table):
    from epigame import games

    return games.Game(
        table.names,
        {p: tuple(Fraction(v) for v in vals) for p, vals in table.payoffs.items()},
    )


def game_text(table):
    from epigame import games

    return games.game_to_text(to_game(table))


def model_text(m, game_ref):
    from epigame import epistemic

    em = epistemic.EpistemicModel(to_game(m.table), m.state_names, m.assignment, m.corr)
    return epistemic.model_to_text(em, game_ref, m.level)
