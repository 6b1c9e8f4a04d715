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

from .games import BudgetExceededError, Restriction, load_game_file, restriction_leq, subsets_of
from .operators import descend, iterate_to_outcome
from .optimality import require_monotone, satisfies_singleton_truth


class ModelFormatError(ValueError):
    """Raised on malformed model files; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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


def check_fixed_point_characterizations(model, event, budget_states=12):
    """Compare common_box against its three finite characterizations.

    Returns a dict of named booleans; all should be true on belief models,
    and the knowledge entry additionally on knowledge models.
    """
    if model.num_states > budget_states:
        raise BudgetExceededError(
            f"{model.num_states} states exceed the event enumeration budget"
        )
    target = common_box(model, event)
    all_events = [frozenset(ev) for ev in subsets_of(model.states())]
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
        name = ",".join(game.name(i, s) for i, s in enumerate(profile))
        if name in used:
            name = f"{name}#{len(used)}"
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


def rationality_event(model, prop):
    """States where the property holds for the owner's strategy given their beliefs.

    G_{P_i(w)} depends only on the block, so the states are grouped by block
    into cells, one per distinct strategy image. A property declaring
    condition A (own_independent) ignores the owner's own image, so its cells
    are keyed by the opponents' images alone and the first restriction seen
    stands for the cell. Each cell asks the property once, for the own
    strategies played at its states.
    """
    i = prop.player
    own = model.assignment[i]
    states_of = {}  # block -> the states holding it
    for w, block in zip(model.states(), model.blocks(i)):
        states_of.setdefault(block, []).append(w)
    cells = {}  # strategy images, or the opponents' -> (restriction, own strategies, states)
    for block, states in states_of.items():
        sets = _images(model, [block] * model.game.n)
        key = sets[:i] + sets[i + 1 :] if prop.own_independent else sets
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = (Restriction(model.game, sets), set(), [])
        cell[1].update(map(own.__getitem__, states))
        cell[2].extend(states)
    out = []
    for G, asked, states in cells.values():
        kept = prop.survivors(G, frozenset(asked))
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


def random_knowledge_model(rng, game, max_states=8):
    """Random model with a random information partition per player."""
    k = rng.randint(1, max_states)
    corr = []
    for _ in range(game.n):
        blocks = _random_partition(rng, range(k))
        lookup = {}
        for block in blocks:
            for w in block:
                lookup[w] = block
        corr.append(tuple(lookup[w] for w in range(k)))
    model = EpistemicModel(
        game,
        tuple(f"w{w + 1}" for w in range(k)),
        random_assignment(rng, game, k),
        tuple(corr),
    )
    if validate(model, "knowledge"):
        raise AssertionError("random knowledge model does not validate")
    return model


def random_belief_model(rng, game, max_states=8):
    """Random belief-level model: blocks partition part of the state space and
    the remaining states point at an arbitrary block, so frames need not be
    reflexive."""
    k = rng.randint(1, max_states)
    corr = []
    for _ in range(game.n):
        core = rng.sample(range(k), rng.randint(1, k))
        blocks = _random_partition(rng, core)
        lookup = {}
        for block in blocks:
            for w in block:
                lookup[w] = block
        per_state = tuple(
            lookup.get(w, None) or rng.choice(blocks) for w in range(k)
        )
        corr.append(per_state)
    model = EpistemicModel(
        game,
        tuple(f"w{w + 1}" for w in range(k)),
        random_assignment(rng, game, k),
        tuple(corr),
    )
    if validate(model, "belief"):
        raise AssertionError("random belief model does not validate")
    return model


# ---------- model file format ----------


@dataclass(frozen=True)
class LoadedModel:
    model: EpistemicModel
    level: str
    game_path: str


def parse_model(text, base_dir="."):
    """Parse the plain-text model format; see the README for the layout.

    A well-formed text is read column-wise; only when a check of that reading
    fails does the line loop run, which names the first faulty line.
    """
    lines = _text_lines(text)
    games = {}  # the path after 'game' -> its game, so a fallback loads it once
    parts = _model_columns(lines, base_dir, games) or _model_lines(lines, base_dir, games)
    return _loaded_model(*parts)


def _text_lines(text):
    """The lines of a text with '#' comments cut off."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return lines


def _game_at(games, game_path, base_dir):
    if game_path not in games:
        path = game_path
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        games[game_path] = load_game_file(path)
    return games[game_path]


def _model_columns(lines, base_dir, games):
    """The parts of a model text, or None if any check fails: the first two
    non-blank lines are 'game <path>' and 'states <name>...'; every other
    line is an assign, P or level line; the assign lines give every (state,
    player) once, and the P lines, if any, every (player, state) once.

    The assign lines are read as one flat token list cut by stride; each
    line's own token list lives only to be counted. A P line is cut at its
    ' : ' and the parts before it are read the same way. Each distinct text
    after ' : ' is split once, and equal blocks are one frozenset.
    """
    lines = list(filter(None, map(str.strip, lines)))
    if len(lines) < 2:
        return None
    head, states = lines[0].split(), lines[1].split()
    if len(head) != 2 or head[0] != "game" or states[0] != "states" or len(states) < 2:
        return None
    game = _game_at(games, head[1], base_dir)
    state_names = tuple(states[1:])
    state_index = {name: w for w, name in enumerate(state_names)}
    if len(state_index) != len(state_names):
        return None
    n, k = game.n, len(state_names)
    players = {str(i + 1): i for i in range(n)}

    body = lines[2:]
    kinds = list(map(operator.itemgetter(0), body))  # each line's first character

    def lines_of(kind):
        return list(itertools.compress(body, map(operator.eq, kinds, itertools.repeat(kind))))

    def columns(rows, width, directive):
        """The rows' tokens as one flat list, or None unless there are n·|W|
        rows, each of width tokens, the first of them the directive."""
        if len(rows) != n * k or list(map(len, map(str.split, rows))).count(width) != n * k:
            return None
        toks = " ".join(rows).split()
        return toks if toks[::width].count(directive) == n * k else None

    def column(index, names):
        col = list(map(index.get, names))
        return None if None in col else col

    def by_player(player_col, state_col, values):
        """Per player, the values by state; None on an unknown player or
        state, or unless every (player, state) is given once."""
        i_col, w_col = column(players, player_col), column(state_index, state_col)
        if i_col is None or w_col is None:
            return None
        slots = map(operator.add, map(operator.mul, i_col, itertools.repeat(k)), w_col)
        table = dict(zip(slots, values))
        if len(table) != n * k:
            return None
        flat = list(map(table.__getitem__, range(n * k)))
        return tuple(tuple(flat[i * k : (i + 1) * k]) for i in range(n))

    def assignment_of(rows):
        """Per player, the strategy by state, or None."""
        toks = columns(rows, 4, "assign")
        if toks is None:
            return None
        i_col = column(players, toks[2::4])
        if i_col is None:
            return None
        index = [{nm: s for s, nm in enumerate(names)} for names in game.strategy_names]
        chosen = list(map(dict.get, map(index.__getitem__, i_col), toks[3::4]))
        return None if None in chosen else by_player(toks[2::4], toks[1::4], chosen)

    def blocks_of(rows):
        """Per player, the block by state, or None."""
        cuts = list(map(str.partition, rows, itertools.repeat(" : ")))
        heads, seps, listed = (list(map(operator.itemgetter(j), cuts)) for j in range(3))
        toks = columns(heads, 3, "P") if seps.count(" : ") == len(rows) else None
        if toks is None:
            return None
        blocks = {}  # the text after ' : ' -> its block
        shared = {}  # one object per distinct block
        for names in set(listed):
            block = frozenset(map(state_index.get, names.split()))
            if None in block:
                return None
            blocks[names] = shared.setdefault(block, block)
        return by_player(toks[1::3], toks[2::3], map(blocks.__getitem__, listed))

    assigns, plines, levels = lines_of("a"), lines_of("P"), lines_of("l")
    if len(assigns) + len(plines) + len(levels) != len(body):
        return None
    level, level_seen = "bare", False
    for line in levels:
        toks = line.split()
        if toks[0] != "level" or len(toks) != 2 or toks[1] not in LEVELS:
            return None
        level, level_seen = toks[1], True
    # each reading's tokens are dropped before the next one starts
    assignment = assignment_of(assigns)
    if assignment is None:
        return None
    corr = blocks_of(plines) if plines else None
    if plines and corr is None:
        return None
    return game, head[1], state_names, assignment, corr, level, level_seen


def _model_lines(lines, base_dir, games):
    """The parts of a model text read line by line; raises at the first
    faulty line."""
    game = None
    game_path = None
    state_names = state_index = None
    assigns = {}  # (state, player) -> strategy
    plines = {}  # (player, state) -> frozenset of states
    blocks = {}  # the names after ':' -> their block
    shared = {}  # one object per distinct block
    level = "bare"
    level_seen = False

    def state_idx(name, lineno):
        try:
            return state_index[name]
        except KeyError:
            raise ModelFormatError(f"unknown state {name!r}", lineno) from None

    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks:
            continue
        head = toks[0]
        if head == "game":
            if len(toks) != 2:
                raise ModelFormatError("expected 'game <path>'", lineno)
            game_path = toks[1]
            game = _game_at(games, game_path, base_dir)
        elif head == "states":
            if game is None:
                raise ModelFormatError("'states' before 'game'", lineno)
            if len(toks) < 2:
                raise ModelFormatError("no states listed", lineno)
            if len(set(toks[1:])) != len(toks) - 1:
                raise ModelFormatError("duplicate state name", lineno)
            state_names = tuple(toks[1:])
            state_index = {name: w for w, name in enumerate(state_names)}
        elif head == "assign":
            if state_names is None:
                raise ModelFormatError("'assign' before 'states'", lineno)
            if len(toks) != 4:
                raise ModelFormatError("expected 'assign <state> <player> <strategy>'", lineno)
            w = state_idx(toks[1], lineno)
            try:
                i = int(toks[2]) - 1
            except ValueError:
                raise ModelFormatError(f"bad player {toks[2]!r}", lineno) from None
            if not 0 <= i < game.n:
                raise ModelFormatError(f"player {toks[2]} out of range", lineno)
            try:
                s = game.index(i, toks[3])
            except KeyError:
                raise ModelFormatError(
                    f"unknown strategy {toks[3]!r} for player {i + 1}", lineno
                ) from None
            if (w, i) in assigns:
                raise ModelFormatError(
                    f"assignment for state {toks[1]} player {i + 1} given twice", lineno
                )
            assigns[(w, i)] = s
        elif head == "P":
            if state_names is None:
                raise ModelFormatError("'P' before 'states'", lineno)
            if len(toks) < 4 or toks[3] != ":":
                raise ModelFormatError("expected 'P <player> <state> : <state>...'", lineno)
            try:
                i = int(toks[1]) - 1
            except ValueError:
                raise ModelFormatError(f"bad player {toks[1]!r}", lineno) from None
            if not 0 <= i < game.n:
                raise ModelFormatError(f"player {toks[1]} out of range", lineno)
            w = state_idx(toks[2], lineno)
            if (i, w) in plines:
                raise ModelFormatError(
                    f"P for player {i + 1} at state {toks[2]} given twice", lineno
                )
            listed = tuple(toks[4:])
            if listed not in blocks:
                block = frozenset(state_idx(nm, lineno) for nm in listed)
                blocks[listed] = shared.setdefault(block, block)
            plines[(i, w)] = blocks[listed]
        elif head == "level":
            if len(toks) != 2 or toks[1] not in LEVELS:
                raise ModelFormatError("expected 'level bare|belief|knowledge'", lineno)
            level = toks[1]
            level_seen = True
        else:
            raise ModelFormatError(f"unexpected directive {head!r}", lineno)

    if game is None:
        raise ModelFormatError("missing 'game' line")
    if state_names is None:
        raise ModelFormatError("missing 'states' line")
    for w, name in enumerate(state_names):
        for i in range(game.n):
            if (w, i) not in assigns:
                raise ModelFormatError(
                    f"no strategy assigned to player {i + 1} at state {name}"
                )
    assignment = tuple(
        tuple(assigns[(w, i)] for w in range(len(state_names)))
        for i in range(game.n)
    )
    corr = None
    if plines:
        for i in range(game.n):
            for w in range(len(state_names)):
                if (i, w) not in plines:
                    raise ModelFormatError(
                        f"P lines present but P_{i + 1}({state_names[w]}) missing"
                    )
        corr = tuple(
            tuple(plines[(i, w)] for w in range(len(state_names)))
            for i in range(game.n)
        )
    return game, game_path, state_names, assignment, corr, level, level_seen


def _loaded_model(game, game_path, state_names, assignment, corr, level, level_seen):
    model = EpistemicModel(game, state_names, assignment, corr)
    if level_seen:
        bad = validate(model, level)
        if bad:
            raise ModelFormatError(f"model does not validate at level {level}: {bad[0]}")
    elif corr is not None:
        level = "belief" if not validate(model, "belief") else "bare"
    return LoadedModel(model, level, game_path)


def load_model_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), base_dir=os.path.dirname(path) or ".")


def model_to_text(model, game_path, level="bare"):
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
