"""Public announcements on epistemic models.

An announcement is one event per player; its effect keeps only the states in
every announced event and cuts possibility sets down to the survivors. The
iterators below repeatedly announce optimality or rationality until the model
stops shrinking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .epistemic import (
    EpistemicModel,
    optimality_event,
    rationality_event,
    restriction_of,
    standard_model,
)
from .games import BudgetExceededError
from .optimality import satisfies_condition_A


def _check_events(model, events):
    events = tuple(frozenset(e) for e in events)
    if len(events) != model.game.n:
        raise ValueError("need one announced event per player")
    num_states = model.num_states
    for e in events:
        if e and not (0 <= min(e) and max(e) < num_states):
            bad = next(w for w in e if not 0 <= w < num_states)
            raise ValueError(f"state {bad!r} is not in the model")
    return events


def _common(model, events):
    """The states inside every event."""
    common = model.all_event()
    for e in events:
        common &= e
    return common


def effect(model, events):
    """The model after a joint announcement.

    Only states inside every announced event survive; when the model carries
    possibility correspondences they are restricted to the survivors, which
    can leave a player with an empty possibility set.
    """
    events = _check_events(model, events)
    survivors = sorted(_common(model, events))
    index = {w: k for k, w in enumerate(survivors)}
    names = tuple(model.state_names[w] for w in survivors)
    assignment = tuple(
        tuple(model.assignment[i][w] for w in survivors) for i in range(model.game.n)
    )
    corr = None
    if model.correspondences is not None:
        corr = []
        for blocks in model.correspondences:
            cut, shared = {}, {}  # each distinct block is cut once; equal cuts are one object
            for w in survivors:
                if blocks[w] not in cut:
                    kept = frozenset(index[v] for v in blocks[w] if v in index)
                    cut[blocks[w]] = shared.setdefault(kept, kept)
            corr.append(tuple(cut[blocks[w]] for w in survivors))
        corr = tuple(corr)
    return EpistemicModel(model.game, names, assignment, corr)


def announced_restriction(model, events):
    """Per-player strategy images of the announced events."""
    return restriction_of(model, _check_events(model, events))


def misses_announced_restriction(model, events):
    """True when the announcement empties the model even though the announced
    restriction offers every player a strategy: no state is left to model it."""
    events = _check_events(model, events)
    return not _common(model, events) and not restriction_of(model, events).is_empty()


def is_standard(model):
    """States are the joint profiles of the induced restriction, one each."""
    profiles = [model.profile_of(w) for w in model.states()]
    if len(set(profiles)) != len(profiles):
        return False
    induced = restriction_of(model, model.all_event())
    return set(profiles) == set(induced.profiles())


def is_standard_knowledge(model):
    """Standard, and every possibility set is the own-strategy block: the
    model is the standard knowledge model of its induced restriction."""
    return is_standard(model) and models_equal_via_profiles(
        model, standard_model(restriction_of(model, model.all_event()), correspondences=True))


def is_proper(model, events):
    """Proper announcements live on standard models and announce, per player,
    the full cylinder over a subset of that player's own strategies."""
    events = _check_events(model, events)
    if not is_standard(model):
        return False
    for i, e in enumerate(events):
        image = {model.strategy_of(i, w) for w in e}
        cylinder = frozenset(
            w for w in model.states() if model.strategy_of(i, w) in image
        )
        if e != cylinder:
            return False
    return True


# ---------- iterated announcements ----------


@dataclass(frozen=True)
class AnnouncementTrace:
    models: tuple
    events: tuple  # per transition: the tuple of per-player announced events

    @property
    def terminal(self):
        return self.models[-1]

    @property
    def rounds(self):
        return len(self.models) - 1


def _run(model, next_events):
    """Announce next_events(models, rounds), given the trace so far, on its
    last model until an announcement removes no state."""
    models = [model]
    rounds = []
    while True:
        events = next_events(models, rounds)
        nxt = effect(model, events)
        if nxt.num_states == model.num_states:
            break
        rounds.append(events)
        models.append(nxt)
        model = nxt
    return AnnouncementTrace(tuple(models), tuple(rounds))


def iterate_optimality_announcements(profile, start=None):
    """Announce, round after round, that each player's strategy satisfies
    their property in the current induced restriction."""
    game = profile[0].game
    model = start if start is not None else standard_model(game.full_restriction())

    def next_events(models, rounds):
        m = models[-1]
        current = restriction_of(m, m.all_event())
        return tuple(
            optimality_event(m, profile[i], current) for i in range(game.n)
        )

    return _run(model, next_events)


def iterate_rationality_announcements(profile, start=None, check_condition=True):
    """Announce rationality (optimality given each player's beliefs) until the
    model stops shrinking. Start defaults to the standard knowledge model.

    Properties that depend on the owner's own component of the restriction
    can make the terminal model diverge from the elimination outcome, so by
    default each property not declared own-independent is screened and a
    warning issued when it fails.
    """
    game = profile[0].game
    if start is None:
        start = standard_model(game.full_restriction(), correspondences=True)
    if start.correspondences is None:
        raise ValueError("rationality announcements need possibility correspondences")
    if check_condition:
        for prop in profile:
            if prop.own_independent:
                continue
            try:
                report = satisfies_condition_A(prop)
            except BudgetExceededError:
                warnings.warn(f"own-component screening skipped for {prop.name}")
                continue
            if not report.independent:
                warnings.warn(
                    f"property {prop.name} reads its owner's own component; "
                    "the terminal model may not match the elimination outcome"
                )

    def next_events(models, rounds):
        # A state whose P_i block lost no state to the last cut keeps its
        # G_{P_i(w)}, and it survived, so it was rational for i: only the
        # states whose block was cut are decided again. In the first round
        # every state counts as cut.
        model = models[-1]
        if rounds:
            before = models[-2]
            kept = sorted(_common(before, rounds[-1]))  # each state's index in before
        events = []
        for prop in profile:
            cut = model.states()
            if rounds:
                old, new = before.blocks(prop.player), model.blocks(prop.player)
                cut = [w for w, v in enumerate(kept) if len(new[w]) < len(old[v])]
            events.append(model.all_event().difference(cut) | rationality_event(model, prop, cut))
        return tuple(events)

    return _run(start, next_events)


def models_equal_via_profiles(a, b, check_correspondences=True):
    """Equality up to renaming states by their joint profiles.

    Requires distinct profiles within each model so the renaming is forced.
    """
    if a.game is not b.game:
        return False
    pa = [a.profile_of(w) for w in a.states()]
    pb = [b.profile_of(w) for w in b.states()]
    if len(set(pa)) != len(pa) or len(set(pb)) != len(pb):
        return False
    if set(pa) != set(pb):
        return False
    state_of_b = {profile: w for w, profile in enumerate(pb)}
    to_b = [state_of_b[profile] for profile in pa]
    if check_correspondences:
        if (a.correspondences is None) != (b.correspondences is None):
            return False
        if a.correspondences is not None:
            for i in range(a.game.n):
                for w in a.states():
                    mapped = frozenset(to_b[v] for v in a.P(i, w))
                    if mapped != b.P(i, to_b[w]):
                        return False
    return True
