"""Epistemic models over a game: states, strategy assignments, beliefs.

Events are frozensets of state indices. A model may carry possibility
correspondences for every player (belief or knowledge level) or none at all
(bare level). The theorem checkers at the bottom tie common belief of
rationality to the elimination outcome.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass
from typing import Optional

from .games import (
    BudgetExceededError,
    LineFormatError,
    Restriction,
    load_game_file,
    require_writable,
    restriction_leq,
    subsets_of,
    text_lines,
)
from .operators import descend, iterate_to_outcome
from .optimality import require_monotone, satisfies_singleton_truth


class ModelFormatError(LineFormatError):
    """Raised on malformed model files; carries the offending line number."""


LEVELS = ("bare", "belief", "knowledge")


@dataclass(frozen=True, eq=False)
class EpistemicModel:
    game: object
    state_names: tuple
    assignment: tuple  # assignment[i][w] -> strategy index of player i at state w
    correspondences: Optional[tuple] = None  # correspondences[i][w] -> frozenset

    @property
    def num_states(self):
        return len(self.state_names)

    def states(self):
        return range(len(self.state_names))

    def all_event(self):
        return frozenset(self.states())

    def strategy_of(self, i, w):
        return self.assignment[i][w]

    def profile_of(self, w):
        return tuple(self.assignment[i][w] for i in range(self.game.n))

    def P(self, i, w):
        if self.correspondences is None:
            raise ValueError("model has no possibility correspondences")
        return self.correspondences[i][w]

    def blocks(self, i):
        """P_i over all states, so that blocks(i)[w] is P(i, w). Like P it
        refuses a model without correspondences, unless it has no state."""
        if self.correspondences is None:
            if self.state_names:
                raise ValueError("model has no possibility correspondences")
            return ()
        return self.correspondences[i]

    @functools.cached_property
    def _state_indices(self):
        return {name: w for w, name in reversed(tuple(enumerate(self.state_names)))}

    def state_index(self, name):
        try:
            return self._state_indices[name]
        except KeyError:
            raise KeyError(f"no state named {name!r}") from None


def validate(model, level):
    """Violations of the requested level; empty list means the model is fine."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    problems = []
    if level == "bare":
        return problems
    if model.correspondences is None:
        return [f"level {level} requires possibility correspondences"]
    for i in range(model.game.n):
        blocks = model.blocks(i)
        introspective = set()  # blocks already seen to pass; failing ones are rechecked
        for w in model.states():
            block = blocks[w]
            if not block:
                problems.append(f"P_{i + 1}({model.state_names[w]}) is empty")
                continue
            if block not in introspective:
                for w2 in block:
                    if blocks[w2] != block:
                        problems.append(
                            f"P_{i + 1} not introspective at {model.state_names[w]}: "
                            f"P_{i + 1}({model.state_names[w2]}) differs"
                        )
                        break
                else:
                    introspective.add(block)
            if level == "knowledge" and w not in block:
                problems.append(
                    f"P_{i + 1}({model.state_names[w]}) does not contain the state itself"
                )
    return problems


# ---------- event operators ----------


def box(model, event, player=None):
    """States where the player (or, by default, everyone) believes the event."""
    players = range(model.game.n) if player is None else [player]
    believed = model.all_event()
    for i in players:  # keep the states whose P_i block lies inside the event
        inside = map(operator.le, model.blocks(i), itertools.repeat(event))
        believed = believed.intersection(itertools.compress(model.states(), inside))
    return believed


def common_box(model, event):
    """Common belief of an event: the greatest fixpoint of F -> box(F & E).

    Box distributes over intersections, so this is the intersection of the
    box-powers box^k(E) for k >= 1.
    """
    event = frozenset(event)
    return descend(model.all_event(), lambda F: box(model, F & event), operator.le)[-1]


def is_evident(model, event):
    """Whenever the event holds, everyone believes it."""
    return event <= box(model, event)


def every_event(model, budget_states=12):
    """Every event of the model, smallest first; past budget_states states
    the enumeration is refused."""
    if model.num_states > budget_states:
        raise BudgetExceededError(
            f"{model.num_states} states exceed the event enumeration budget"
        )
    return list(subsets_of(model.states()))


def check_fixed_point_characterizations(model, event, budget_states=12):
    """Compare common_box against its three finite characterizations.

    Returns a dict of named booleans; all should be true on belief models,
    and the knowledge entry additionally on knowledge models.
    """
    all_events = every_event(model, budget_states)
    target = common_box(model, event)
    union_post = frozenset()
    for F in all_events:
        if F <= box(model, event & F):
            union_post |= F
    evident = [F for F in all_events if is_evident(model, F)]
    via_evident = frozenset()
    for F in evident:
        if F <= box(model, event):
            via_evident |= F
    report = {
        "union_of_postfixpoints": union_post == target,
        "through_evident_events": via_evident == target,
    }
    if not validate(model, "knowledge"):
        via_evident_sub = frozenset()
        for F in evident:
            if F <= event:
                via_evident_sub |= F
        report["knowledge_reaches_event"] = via_evident_sub == target
    return report


# ---------- between models and restrictions ----------


def restriction_of(model, events):
    """The restriction whose components are the strategy images of the events.

    Pass one event to use it for every player, or a per-player sequence.
    """
    if isinstance(events, (set, frozenset)):
        events = [events] * model.game.n
    events = list(events)
    if len(events) != model.game.n:
        raise ValueError("need one event per player")
    return Restriction(model.game, _images(model, events))


def _images(model, events):
    """Per player i, the strategies i plays on events[i]."""
    return tuple(
        frozenset(map(model.assignment[i].__getitem__, event)) for i, event in enumerate(events)
    )


def event_of_restriction(model, restriction):
    """States whose joint profile lies inside the restriction: per player, the
    states where their own strategy is allowed, intersected."""
    event = model.all_event()
    for own, allowed in zip(model.assignment, restriction.sets):
        event = event.intersection(
            itertools.compress(model.states(), map(allowed.__contains__, own))
        )
    return event


def standard_model(restriction, correspondences=False):
    """The canonical model of a restriction: states are its joint profiles.

    With correspondences=True each player is given the partition into blocks
    of states sharing their own strategy, which validates at knowledge level.
    """
    game = restriction.game
    profiles = list(restriction.profiles())
    names = []
    used = set()
    for profile in profiles:
        name = base = ",".join(game.name(i, s) for i, s in enumerate(profile))
        k = len(used)
        while name in used:  # a model file keeps '~'; a strategy name may hold it too
            name, k = f"{base}~{k}", k + 1
        used.add(name)
        names.append(name)
    assignment = tuple(
        tuple(profile[i] for profile in profiles) for i in range(game.n)
    )
    corr = None
    if correspondences:
        corr = []
        for own in assignment:
            blocks = {}
            for w, s in enumerate(own):
                blocks.setdefault(s, []).append(w)
            blocks = {s: frozenset(states) for s, states in blocks.items()}
            corr.append(tuple(map(blocks.__getitem__, own)))
        corr = tuple(corr)
    model = EpistemicModel(game, tuple(names), assignment, corr)
    if correspondences and profiles:
        # Own-strategy blocks pin exactly the player's own component.
        w = 0
        for i in range(game.n):
            pinned = restriction_of(model, model.P(i, w))
            expected = tuple(
                frozenset([profiles[w][i]]) if j == i else restriction.sets[j]
                for j in range(game.n)
            )
            if pinned.sets != expected:
                raise AssertionError(
                    f"P_{i + 1} of the standard model does not pin its own strategy"
                )
    return model


# ---------- rationality ----------


def pinned_restriction(model, i, w):
    """G_{P_i(w)}: the restriction induced by the state's possibility set."""
    return restriction_of(model, model.P(i, w))


def rationality_event(model, prop, among=None):
    """The states (among the given ones; default every state) where the
    property holds for the owner's strategy given their beliefs.

    G_{P_i(w)} depends only on the block, so the states are grouped by block
    into cells, one per distinct strategy image, and each cell asks the
    property once, for the own strategies played at its states.
    """
    if among is None:
        among = model.states()
    i = prop.player
    own = model.assignment[i]
    states_of = {}  # block -> the states holding it
    for w, block in zip(among, map(model.blocks(i).__getitem__, among)):
        states_of.setdefault(block, []).append(w)
    cells = {}  # strategy images -> (own strategies, states)
    for block, states in states_of.items():
        cell = cells.setdefault(_images(model, [block] * model.game.n), (set(), []))
        cell[0].update(map(own.__getitem__, states))
        cell[1].extend(states)
    out = []
    for sets, (asked, states) in cells.items():
        kept = prop.survivors(Restriction(model.game, sets), frozenset(asked))
        out += itertools.compress(states, map(kept.__contains__, map(own.__getitem__, states)))
    return frozenset(out)


def optimality_event(model, prop, restriction=None):
    """States whose owner's strategy satisfies the property in the restriction
    (default: the restriction induced by the whole model)."""
    if restriction is None:
        restriction = restriction_of(model, model.all_event())
    own = model.assignment[prop.player]
    kept = prop.survivors(restriction, frozenset(own))
    return frozenset(itertools.compress(model.states(), map(kept.__contains__, own)))


def rat_event(model, profile):
    """States where every player is rational."""
    event = model.all_event()
    for prop in profile:
        event &= rationality_event(model, prop)
    return event


# ---------- theorem checkers ----------


def theorem1_lhs(model, profile, mode):
    """The left side of Theorem 1: the event CB(RAT) on a knowledge model,
    RAT and CB(RAT) in any other mode, and the restriction it induces."""
    rat = rat_event(model, profile)
    event = common_box(model, rat)
    if mode != "knowledge":
        event &= rat
    return event, restriction_of(model, event)


@dataclass(frozen=True)
class InclusionReport:
    ok: bool
    mode: str
    event: frozenset
    lhs: Restriction
    outcome: Restriction


def check_theorem_epist1(model, profile, mode="auto"):
    """Common belief of rationality only selects surviving strategies.

    For belief models the event is RAT and common belief of RAT; for
    knowledge models common knowledge of RAT alone suffices. Requires a
    monotone profile (guarded).
    """
    require_monotone(profile)
    if mode == "auto":
        mode = "knowledge" if not validate(model, "knowledge") else "belief"
    bad = validate(model, mode)
    if bad:
        raise ValueError(f"model does not validate at level {mode}: {bad[0]}")
    event, lhs = theorem1_lhs(model, profile, mode)
    outcome = iterate_to_outcome(profile).outcome
    ok = restriction_leq(lhs, outcome)
    return InclusionReport(ok, mode, event, lhs, outcome)


def construct_witness(profile):
    """The proof's witness model: a knowledge model attaining the outcome.

    States are the full game's profiles; every player's possibility set is
    the outcome event F inside it and its complement outside.
    """
    game = profile[0].game
    model = standard_model(game.full_restriction())
    outcome = iterate_to_outcome(profile).outcome
    F = event_of_restriction(model, outcome)
    rest = model.all_event() - F
    per_state = tuple((F if w in F else rest) for w in model.states())
    corr = tuple(per_state for _ in range(game.n))
    witness = EpistemicModel(game, model.state_names, model.assignment, corr)
    if validate(witness, "knowledge"):
        raise AssertionError("the witness model does not validate at knowledge level")
    return witness


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    hypothesis_ok: bool
    lhs: Restriction


def check_theorem_epist2(profile):
    """With singleton truth, common knowledge of rationality excludes nothing.

    Uses the standard model with identity correspondences P_i(w) = {w};
    the induced restriction of common knowledge of RAT must be the full game.
    """
    game = profile[0].game
    hypothesis_ok = all(satisfies_singleton_truth(prop) for prop in profile)
    base = standard_model(game.full_restriction())
    identity = tuple(
        tuple(frozenset([w]) for w in base.states()) for _ in range(game.n)
    )
    model = EpistemicModel(game, base.state_names, base.assignment, identity)
    event = common_box(model, rat_event(model, profile))
    lhs = restriction_of(model, event)
    ok = lhs == game.full_restriction()
    return IdentityReport(ok, hypothesis_ok, lhs)


# ---------- random model generators ----------


def random_assignment(rng, game, num_states):
    return tuple(
        tuple(rng.randrange(game.strategy_count(i)) for _ in range(num_states))
        for i in range(game.n)
    )


def _random_partition(rng, states):
    states = list(states)
    rng.shuffle(states)
    blocks = []
    pos = 0
    while pos < len(states):
        size = rng.randint(1, len(states) - pos)
        blocks.append(frozenset(states[pos : pos + size]))
        pos += size
    return blocks


def random_model(rng, game, max_states, level):
    """Random model that validates at level "knowledge", "belief" or "bare".
    Each player's blocks partition a core of the states, all of them under
    knowledge and a random nonempty part under belief, where every other
    state points at a random block, so frames need not be reflexive. A bare
    model has no blocks."""
    k = rng.randint(1, max_states)
    corr = []
    for _ in range(0 if level == "bare" else game.n):
        core = range(k) if level == "knowledge" else rng.sample(range(k), rng.randint(1, k))
        blocks = _random_partition(rng, core)
        lookup = {w: block for block in blocks for w in block}
        corr.append(tuple(lookup.get(w) or rng.choice(blocks) for w in range(k)))
    model = EpistemicModel(
        game,
        tuple(f"w{w + 1}" for w in range(k)),
        random_assignment(rng, game, k),
        tuple(corr) or None,
    )
    if validate(model, level):
        raise AssertionError(f"random {level} model does not validate")
    return model


# ---------- model file format ----------


@dataclass(frozen=True)
class LoadedModel:
    model: EpistemicModel
    level: str
    game_path: str


def parse_model(text, base_dir="."):
    """Parse the plain-text model format; see the README for the layout.

    The lines are read once, in order, and the first faulty line is named.
    Each line is split into at most five parts, so a P line's block text
    after ':' stays one string. Strategies and blocks go straight into
    per-player lists indexed by state, and equal blocks are one frozenset:
    a block text seen before costs one dict lookup, and a new one is split
    and its states looked up once. A line whose state, player and strategy
    tokens are all known spellings costs one dict lookup each; any other
    goes to a helper that names its fault, or reads the player as int()
    does ('01' is player 1).
    """
    lines = text_lines(text)
    game = game_path = state_names = assignment = corr = None
    state_index, players, strategies = {}, {}, ()  # filled by the 'game' and 'states' lines
    blocks = {}  # the text after ':' -> its block; not empty once a P line is read
    shared = {}  # one object per distinct block
    level, level_seen = "bare", False
    for lineno, toks in enumerate((line.split(None, 4) for line in lines), 1):
        if not toks:
            continue
        head = toks[0]
        if head == "assign":
            w = s = None
            if len(toks) == 4:
                w, i = state_index.get(toks[1]), players.get(toks[2])
                s = None if i is None else strategies[i].get(toks[3])
            if w is None or s is None:
                w, i, s = _assign_parts(toks, lineno, game, state_names, state_index)
            if assignment[i][w] is not None:
                raise ModelFormatError(
                    f"assignment for state {toks[1]} player {i + 1} given twice", lineno
                )
            assignment[i][w] = s
        elif head == "P":
            i = w = None
            if len(toks) >= 4 and toks[3] == ":":
                i, w = players.get(toks[1]), state_index.get(toks[2])
            if i is None or w is None:
                i, w = _p_parts(toks, lineno, game, state_names, state_index)
            if corr[i][w] is not None:
                raise ModelFormatError(
                    f"P for player {i + 1} at state {toks[2]} given twice", lineno
                )
            listed = toks[4] if len(toks) == 5 else ""
            block = blocks.get(listed)
            if block is None:
                names = listed.split()
                block = frozenset(map(state_index.get, names))
                if None in block:
                    name = next(nm for nm in names if nm not in state_index)
                    raise ModelFormatError(f"unknown state {name!r}", lineno)
                block = blocks[listed] = shared.setdefault(block, block)
            corr[i][w] = block
        elif head == "level":
            if len(toks) != 2 or toks[1] not in LEVELS:
                raise ModelFormatError("expected 'level bare|belief|knowledge'", lineno)
            level, level_seen = toks[1], True
        elif head == "states":
            if game is None:
                raise ModelFormatError("'states' before 'game'", lineno)
            if state_names is not None:
                raise ModelFormatError("'states' given twice", lineno)
            if len(toks) < 2:
                raise ModelFormatError("no states listed", lineno)
            state_names = tuple(lines[lineno - 1].split()[1:])
            state_index = {name: w for w, name in enumerate(state_names)}
            if len(state_index) != len(state_names):
                raise ModelFormatError("duplicate state name", lineno)
            assignment = [[None] * len(state_names) for _ in range(game.n)]
            corr = [[None] * len(state_names) for _ in range(game.n)]
        elif head == "game":
            if game is not None:
                raise ModelFormatError("'game' given twice", lineno)
            if len(toks) < 2:
                raise ModelFormatError("expected 'game <path>'", lineno)
            game_path = lines[lineno - 1].split(None, 1)[1].strip()
            game = load_game_file(os.path.join(base_dir, game_path))
            players = {str(i + 1): i for i in range(game.n)}
            strategies = game._indices
        else:
            raise ModelFormatError(f"unexpected directive {head!r}", lineno)

    if game is None:
        raise ModelFormatError("missing 'game' line")
    if state_names is None:
        raise ModelFormatError("missing 'states' line")
    missing = [(row.index(None), i) for i, row in enumerate(assignment) if None in row]
    if missing:
        w, i = min(missing)
        raise ModelFormatError(f"no strategy assigned to player {i + 1} at state {state_names[w]}")
    if blocks:
        for i, row in enumerate(corr):
            if None in row:
                raise ModelFormatError(
                    f"P lines present but P_{i + 1}({state_names[row.index(None)]}) missing"
                )
    model = EpistemicModel(
        game, state_names, tuple(map(tuple, assignment)), tuple(map(tuple, corr)) if blocks else None
    )
    if level_seen:
        bad = validate(model, level)
        if bad:
            raise ModelFormatError(f"model does not validate at level {level}: {bad[0]}")
    elif blocks:
        level = "belief" if not validate(model, "belief") else "bare"
    return LoadedModel(model, level, game_path)


def _assign_parts(toks, lineno, game, state_names, state_index):
    """The state, player and strategy of an assign line that missed a
    lookup, or its fault raised."""
    if state_names is None:
        raise ModelFormatError("'assign' before 'states'", lineno)
    if len(toks) != 4:
        raise ModelFormatError("expected 'assign <state> <player> <strategy>'", lineno)
    w = _state_at(state_index, toks[1], lineno)
    i = _player_at(game, toks[2], lineno)
    try:
        return w, i, game.index(i, toks[3])
    except KeyError:
        raise ModelFormatError(f"unknown strategy {toks[3]!r} for player {i + 1}", lineno) from None


def _p_parts(toks, lineno, game, state_names, state_index):
    """The player and state of a P line that missed a lookup, or its fault raised."""
    if state_names is None:
        raise ModelFormatError("'P' before 'states'", lineno)
    if len(toks) < 4 or toks[3] != ":":
        raise ModelFormatError("expected 'P <player> <state> : <state>...'", lineno)
    i = _player_at(game, toks[1], lineno)
    return i, _state_at(state_index, toks[2], lineno)


def _player_at(game, token, lineno):
    try:
        i = int(token) - 1
    except ValueError:
        raise ModelFormatError(f"bad player {token!r}", lineno) from None
    if not 0 <= i < game.n:
        raise ModelFormatError(f"player {token} out of range", lineno)
    return i


def _state_at(state_index, name, lineno):
    try:
        return state_index[name]
    except KeyError:
        raise ModelFormatError(f"unknown state {name!r}", lineno) from None


def load_model_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), base_dir=os.path.dirname(path) or ".")


def model_to_text(model, game_path, level="bare"):
    # the reader takes the rest of the 'game' line, cut at '#' and stripped
    if "#" in game_path or "".join(game_path.splitlines()).strip() != game_path:
        raise ValueError(f"a model file cannot name the game path {game_path!r}: "
                         "it holds '#', a line break or whitespace at an end")
    require_writable(model.state_names, "the state name")
    for i, names in enumerate(model.game.strategy_names):
        require_writable(names, f"player {i + 1}'s strategy name", sorted(set(model.assignment[i])))
    out = [f"game {game_path}", "states " + " ".join(model.state_names)]
    for w, name in enumerate(model.state_names):
        for i in range(model.game.n):
            out.append(
                f"assign {name} {i + 1} {model.game.name(i, model.strategy_of(i, w))}"
            )
    if model.correspondences is not None:
        for i in range(model.game.n):
            for w, name in enumerate(model.state_names):
                block = " ".join(model.state_names[v] for v in sorted(model.P(i, w)))
                out.append(f"P {i + 1} {name} : {block}")
    out.append(f"level {level}")
    return "\n".join(out) + "\n"
