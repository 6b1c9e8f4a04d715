"""Expected outputs computed from the benchmark's own payoff tables.

Nothing here imports epigame. The pure properties (sd, wd and br with pure
beliefs, each local or global) are re-implemented from their definitions on
int payoffs, including the vacuous cases on empty contexts, and the expected
stdout of each command is rendered in the CLI's text format, so a verifier
compares whole outputs.
"""

from __future__ import annotations

import itertools

PURE = ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g")


def _payoff(table, i, s, ctx):
    profile = list(ctx)
    profile.insert(i, s)
    return table.payoffs[tuple(profile)][i]


def _contexts(table, sets, i):
    return list(itertools.product(*(sorted(sets[j]) for j in range(table.n) if j != i)))


def _vectors(table, i, sets, strategies):
    """Player i's payoff vector over the contexts of the restriction, per strategy."""
    ctxs = _contexts(table, sets, i)
    return {s: [_payoff(table, i, s, c) for c in ctxs] for s in strategies}


def _own(table, prop, i, sets):
    """The strategies player i compares against: the restriction's (_l) or all (_g)."""
    return sorted(sets[i]) if prop.endswith("_l") else range(table.sizes[i])


def _judge(prop, vec, s, own):
    kind = prop.split("_")[0]
    mine = vec[s]
    if kind == "sd":
        return not any(all(a > b for a, b in zip(vec[d], mine)) for d in own)
    if kind == "wd":
        return not any(
            all(a >= b for a, b in zip(vec[d], mine)) and any(a > b for a, b in zip(vec[d], mine))
            for d in own
        )
    if kind == "br":
        return any(all(u >= vec[t][c] for t in own) for c, u in enumerate(mine))
    raise ValueError(f"not a pure property: {prop}")


def holds(table, prop, i, s, sets):
    """Does player i's strategy s satisfy the pure property on the restriction?"""
    own = _own(table, prop, i, sets)
    return _judge(prop, _vectors(table, i, sets, set(own) | {s}), s, own)


def _good(table, prop, i, sets, candidates):
    """The candidates of player i that satisfy the property on the restriction."""
    own = _own(table, prop, i, sets)
    vec = _vectors(table, i, sets, set(own) | set(candidates))
    return frozenset(s for s in candidates if _judge(prop, vec, s, own))


def apply_T(table, props, sets):
    return tuple(_good(table, props[i], i, sets, part) for i, part in enumerate(sets))


def full(table):
    return tuple(frozenset(range(m)) for m in table.sizes)


def outcome(table, props):
    """(outcome sets, closure ordinal) of iterated elimination from the full game."""
    sets = full(table)
    rounds = 0
    while True:
        nxt = apply_T(table, props, sets)
        if nxt == sets:
            return sets, rounds
        sets = nxt
        rounds += 1


def describe(table, sets):
    return " | ".join(
        "{" + ",".join(table.names[i][s] for s in sorted(part)) + "}"
        for i, part in enumerate(sets)
    )


def solve_text(table, props):
    sets, rounds = outcome(table, props)
    return (
        f"property: {','.join(props)}\n"
        f"outcome: {describe(table, sets)}\n"
        f"closure ordinal: {rounds}\n"
    )


def traveler_text(table, props):
    """Closed form for traveler's dilemma: sd removes nothing; every other
    builtin removes the top claim each round, leaving the lowest after n - 1."""
    n = table.sizes[0]
    if props[0].startswith("sd"):
        sets, rounds = full(table), 0
    else:
        sets = tuple(frozenset([part.index("c1")]) for part in table.names)
        rounds = n - 1
    return (
        f"property: {','.join(props)}\n"
        f"outcome: {describe(table, sets)}\n"
        f"closure ordinal: {rounds}\n"
    )


def no_pure_dominator(table, props, sets):
    """Pure necessary condition for a fixpoint of an LP property: no survivor
    is weakly (mwd) or strictly (msd, brc) dominated by a pure strategy of the
    restriction (_l) or of the game (_g)."""
    for i, prop in enumerate(props):
        pure = ("wd_" if prop.startswith("mwd") else "sd_") + prop[-1]
        for s in sets[i]:
            if not holds(table, pure, i, s, sets):
                return False
    return True


def parse_outcome(table, text):
    """The outcome sets printed by solve, as index sets; None if absent."""
    for line in text.splitlines():
        if line.startswith("outcome: "):
            parts = line[len("outcome: ") :].split(" | ")
            if len(parts) != table.n:
                return None
            sets = []
            for i, part in enumerate(parts):
                names = [nm for nm in part.strip("{}").split(",") if nm]
                index = {nm: s for s, nm in enumerate(table.names[i])}
                if any(nm not in index for nm in names):
                    return None
                sets.append(frozenset(index[nm] for nm in names))
            return tuple(sets)
    return None


# ---------- epistemic models ----------


def _image(model, event):
    return tuple(
        frozenset(model.assignment[i][w] for w in event) for i in range(model.table.n)
    )


def _names(model, event):
    return " ".join(model.state_names[w] for w in sorted(event))


def _optimal(table, props, sets):
    """Each player's strategies that satisfy their property on the restriction."""
    return [_good(table, props[i], i, sets, range(m)) for i, m in enumerate(table.sizes)]


def _where(model, good, among):
    """The states in ``among`` where every player plays a strategy in good."""
    return frozenset(
        w for w in among if all(model.assignment[i][w] in good[i] for i in range(model.table.n))
    )


def nu_opt(model, props):
    """nu x. O(x): shrink from all states, keeping those whose every strategy
    satisfies its property in the restriction the current event induces."""
    states = range(len(model.state_names))
    event = frozenset(states)
    while True:
        nxt = _where(model, _optimal(model.table, props, _image(model, event)), states)
        if nxt == event:
            return event
        event = nxt


def eval_text(model, event):
    everything = len(event) == len(model.state_names)
    return f"holds at: {_names(model, event) or '(nowhere)'}\nvalid: {'yes' if everything else 'no'}\n"


def _announce(model, props, rationality):
    """Terminal state set and round count of iterated announcements on a model."""
    table = model.table
    alive = frozenset(range(len(model.state_names)))
    rounds = 0
    while True:
        if rationality:
            cache = {}

            def ok(i, w):
                block = model.corr[i][w] & alive
                key = (i, block, model.assignment[i][w])
                if key not in cache:
                    cache[key] = holds(
                        table, props[i], i, model.assignment[i][w], _image(model, block)
                    )
                return cache[key]

            nxt = frozenset(w for w in alive if all(ok(i, w) for i in range(table.n)))
        else:
            nxt = _where(model, _optimal(table, props, _image(model, alive)), alive)
        if len(nxt) == len(alive):
            return alive, rounds
        alive = nxt
        rounds += 1


def announce_model_text(model, props, rationality):
    alive, rounds = _announce(model, props, rationality)
    return f"rounds: {rounds}\nstates: {_names(model, alive) or '(none)'}\n"


def announce_events_text(model, events):
    """Output of `announce --events` for one event per player."""
    table = model.table
    states = range(len(model.state_names))
    profiles = [model.profile_of(w) for w in states]
    image = _image(model, frozenset(states))
    standard = len(set(profiles)) == len(profiles) and set(profiles) == set(
        itertools.product(*(sorted(part) for part in image))
    )
    proper = standard and all(
        e == frozenset(w for w in states if model.assignment[i][w] in _image(model, e)[i])
        for i, e in enumerate(events)
    )
    survivors = frozenset.intersection(*events)
    announced = tuple(_image(model, e)[i] for i, e in enumerate(events))
    lines = [
        f"proper: {'yes' if proper else 'no'}",
        f"surviving states: {_names(model, survivors) or '(none)'}",
        f"announced restriction: {describe(table, announced)}",
    ]
    if not survivors and not any(not part for part in announced):
        lines.append(
            "warning: no state survives, so the result is not a model "
            "of the announced restriction"
        )
    return "\n".join(lines) + "\n"


def announce_game_text(table, props, rationality):
    """Output of `announce <game>`: announcements on the standard model.

    Optimality announcements on a standard model follow T exactly. Under
    rationality each player's possibility set is their own-strategy block, so
    a strategy is judged on the restriction with its own component pinned.
    """
    sets = full(table)
    history = [sets]
    while True:
        if rationality:
            nxt = tuple(
                frozenset(
                    s
                    for s in part
                    if holds(
                        table,
                        props[i],
                        i,
                        s,
                        tuple(frozenset([s]) if j == i else sets[j] for j in range(table.n)),
                    )
                )
                for i, part in enumerate(sets)
            )
        else:
            nxt = apply_T(table, props, sets)
        if _count(nxt) == _count(sets):
            break
        history.append(nxt)
        sets = nxt
        if _count(sets) == 0:
            break
    lines = [f"rounds: {len(history) - 1}"]
    for k, r in enumerate(history):
        names = " ".join(
            ",".join(table.names[i][s] for i, s in enumerate(p))
            for p in itertools.product(*(sorted(part) for part in r))
        )
        lines.append(f"round {k} states: {names or '(none)'}")
    terminal = sets if _count(sets) else tuple(frozenset() for _ in sets)
    lines.append(f"terminal restriction: {describe(table, terminal)}")
    return "\n".join(lines) + "\n"


def _count(sets):
    total = 1
    for part in sets:
        total *= len(part)
    return total
