"""Randomized cross-checks between the elimination operator, the epistemic
models, the two languages and the announcement dynamics.

Every check draws its own generator seeded from (seed, check name), so results
do not depend on how many checks run or in which order. A failing check
returns a counterexample payload built only from plain data (file texts and
name lists); verify_counterexample replays the central inclusion claims from
such a payload alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import announcements, epistemic, games, logic, operators, optimality
from .optimality import BUILTIN_NAMES, MONOTONE_BUILTINS, profile_named

LOCAL_BUILTINS = ("sd_l", "msd_l", "wd_l", "mwd_l", "br_l", "brc_l")
GLOBAL_BUILTINS = ("sd_g", "msd_g", "wd_g", "mwd_g", "br_g")
PURE_BUILTINS = ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g")
PAIR_BASES = ("sd", "msd", "wd", "mwd", "br")


@dataclass(frozen=True)
class CheckConfig:
    seed: int = 0
    count: int = 20
    min_players: int = 2
    max_players: int = 3
    min_strategies: int = 2
    max_strategies: int = 4
    payoff_bound: int = 9
    max_states: int = 8
    budget: int = 10
    properties: Optional[tuple] = None

    def __post_init__(self):
        # A negative count would run nothing and pass; smaller sizes draw games
        # load_game refuses or leave the random generators empty ranges.
        for option, smallest in (
            ("count", 0),
            ("min_players", 2),
            ("max_players", self.min_players),
            ("min_strategies", 1),
            ("max_strategies", self.min_strategies),
            ("payoff_bound", 0),
            ("max_states", 1),
        ):
            value = getattr(self, option)
            if value < smallest:
                raise ValueError(f"{option} must be at least {smallest}, got {value}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    instances: int
    detail: str = ""
    counterexample: Optional[dict] = None


# ---------- random instances ----------

_LETTERS = "abcdefghij"


def _strategy_name(k):
    return _LETTERS[k] if k < len(_LETTERS) else f"s{k + 1}"


def random_game(rng, cfg, n=None, lp_heavy=False):
    """A random game within the size bounds; lp_heavy caps the strategy sets
    further, at 3 strategies for two players and 2 otherwise, so that checks
    running many small linear programs stay fast."""
    if n is None:
        n = rng.randint(cfg.min_players, cfg.max_players)
    cap = min(cfg.max_strategies, 3 if n == 2 else 2) if lp_heavy else cfg.max_strategies
    lo = min(cfg.min_strategies, cap)
    for _ in range(200):
        sizes = [rng.randint(lo, cap) for _ in range(n)]
        if sum(sizes) <= cfg.budget:
            break
    else:
        raise games.BudgetExceededError("no game size fits the strategy budget")
    names = tuple(tuple(_strategy_name(k) for k in range(size)) for size in sizes)
    # one draw per profile in profiles() order, then per player
    drawn = [rng.randint(-cfg.payoff_bound, cfg.payoff_bound)
             for _ in range(math.prod(sizes) * n)]
    return games.Game.from_columns(names, [drawn[i::n] for i in range(n)], [1] * n)


def _lp_heavy(names):
    return any(nm.startswith(("msd", "mwd")) or nm == "brc_l" for nm in names)


def _random_profile(rng, cfg, pool):
    """A random game and one property per player, names drawn from the pool."""
    n = rng.randint(cfg.min_players, cfg.max_players)
    names = [rng.choice(pool) for _ in range(n)]
    game = random_game(rng, cfg, n, lp_heavy=_lp_heavy(names))
    return game, names, profile_named(game, names)


def random_event(rng, model):
    return frozenset(w for w in model.states() if rng.random() < 0.5)


def random_bare_model(rng, game, max_states=8):
    k = rng.randint(1, max_states)
    return epistemic.EpistemicModel(
        game,
        tuple(f"w{w + 1}" for w in range(k)),
        epistemic.random_assignment(rng, game, k),
    )


def random_l_formula(rng, game, depth=3):
    """A random formula of the basic modal language (no fixpoint variable)."""
    return _random_formula(rng, game, depth, 0.35, None)


def random_positive_body(rng, game, depth=3, even=True):
    """A fixpoint body, positive in the variable by construction."""
    return _random_formula(rng, game, depth, 0.3, even)


def _random_formula(rng, game, depth, leaf, even):
    """A random formula that stops at a leaf with probability leaf. even is
    None for no variable, else whether the variable may sit below the
    negations met so far (an even number of them)."""
    players = [None] + list(range(game.n))
    if depth == 0 or rng.random() < leaf:
        if even and rng.random() < 0.5:
            return logic.Var()
        return logic.Rat(rng.choice(players))
    kind = rng.choice(("and", "not", "box", "opt"))
    if kind == "and":
        return logic.AndF(
            _random_formula(rng, game, depth - 1, leaf, even),
            _random_formula(rng, game, depth - 1, leaf, even),
        )
    if kind == "not":
        return logic.NotF(
            _random_formula(rng, game, depth - 1, leaf, None if even is None else not even))
    sub = _random_formula(rng, game, depth - 1, leaf, even)
    if kind == "box":
        return logic.Box(rng.choice(players), sub)
    return logic.Opt(rng.choice(players), sub)


# ---------- counterexample payloads ----------


def _model_payload(model):
    game = model.game
    payload = {
        "states": list(model.state_names),
        "assign": [
            [game.name(i, model.strategy_of(i, w)) for w in model.states()]
            for i in range(game.n)
        ],
        "P": None,
    }
    if model.correspondences is not None:
        payload["P"] = [
            [sorted(model.P(i, w)) for w in model.states()] for i in range(game.n)
        ]
    return payload


def _restore_model(game, payload):
    assignment = tuple(
        tuple(game.index(i, nm) for nm in row)
        for i, row in enumerate(payload["assign"])
    )
    corr = None
    if payload["P"] is not None:
        corr = tuple(
            tuple(frozenset(block) for block in row) for row in payload["P"]
        )
    return epistemic.EpistemicModel(
        game, tuple(payload["states"]), assignment, corr
    )


def _inclusion_payload(game, model, rat_names, outcome_names, mode, belief_class=None):
    return {
        "claim": "inclusion",
        "game": games.game_to_text(game),
        "model": _model_payload(model),
        "mode": mode,
        "rat": list(rat_names),
        "outcome": list(outcome_names),
        "belief_class": belief_class,
    }


def _belief_inclusion_holds(model, rat_profile, outcome_profile, mode):
    """The induced restriction of (common belief of) rationality sits inside
    the elimination outcome of outcome_profile."""
    _, lhs = epistemic.theorem1_lhs(model, rat_profile, mode)
    outcome = operators.iterate_to_outcome(outcome_profile).outcome
    return games.restriction_leq(lhs, outcome)


def _witness_equality_holds(profile):
    witness = epistemic.construct_witness(profile)
    _, lhs = epistemic.theorem1_lhs(witness, profile, "knowledge")
    return lhs == operators.iterate_to_outcome(profile).outcome


def verify_counterexample(payload):
    """Replay a counterexample payload; True means the violation reproduces."""
    claim = payload["claim"]
    game = games.load_game(payload["game"])
    if claim == "inclusion":
        model = _restore_model(game, payload["model"])
        rat = profile_named(game, payload["rat"], payload.get("belief_class"))
        out = profile_named(game, payload["outcome"])
        return not _belief_inclusion_holds(model, rat, out, payload["mode"])
    if claim == "witness_equality":
        return not _witness_equality_holds(profile_named(game, payload["rat"]))
    raise ValueError(f"cannot replay a counterexample for claim {claim!r}")


# ---------- the registry ----------

# Filled by _check in definition order, which is the order `all` runs.
CHECKS = {}  # name -> run(cfg) returning a CheckResult
SUITES = {}
# Which builtin names a check accepts through CheckConfig.properties; checks
# missing here draw fixed properties and ignore the override.
CHECK_POOLS = {}


def _check(suite, pool=None, name=None, fixed=False):
    """Register the decorated function as the check `name` (by default the
    function's own name) of `suite`, drawing properties from `pool` if given.

    The function tests one random instance: it gets the check's generator,
    the configuration and, when the check has a pool, that pool or
    CheckConfig.properties in its place; it returns None or a counterexample
    payload. A fixed check's function gets nothing, tests its own fixed
    instances and returns (instances, failure detail or "", payload).
    """

    def register(body):
        key = name or body.__name__

        def run(cfg):
            if fixed:
                instances, detail, payload = body()
                return CheckResult(key, not detail, instances, detail, payload)
            rng = random.Random(f"{cfg.seed}:{key}")
            args = (rng, cfg) if pool is None else (rng, cfg, cfg.properties or pool)
            for k in range(cfg.count):
                payload = body(*args)
                if payload is not None:
                    payload.setdefault("claim", key)
                    payload["check"] = key
                    return CheckResult(
                        key, False, k + 1, f"failed on instance {k + 1}", payload
                    )
            return CheckResult(key, True, cfg.count)

        CHECKS[key] = run
        SUITES[suite] = SUITES.get(suite, ()) + (key,)
        if pool is not None:
            CHECK_POOLS[key] = pool
        return body

    return register


# ---------- the checks, in registry order ----------


def _epist1(rng, cfg, pool, mode):
    """Common true belief (belief mode) or common knowledge (knowledge mode)
    of rationality only keeps surviving strategies."""
    game, names, profile = _random_profile(rng, cfg, pool)
    model = epistemic.random_model(rng, game, cfg.max_states, mode)
    if _belief_inclusion_holds(model, profile, profile, mode):
        return None
    return _inclusion_payload(game, model, names, names, mode)


_check("epist1", MONOTONE_BUILTINS, "epist1_belief")(partial(_epist1, mode="belief"))
_check("epist1", MONOTONE_BUILTINS, "epist1_knowledge")(partial(_epist1, mode="knowledge"))


@_check("epist1", MONOTONE_BUILTINS)
def epist1_witness(rng, cfg, pool):
    """Some knowledge model attains the outcome exactly."""
    game, names, profile = _random_profile(rng, cfg, pool)
    if _witness_equality_holds(profile):
        return None
    return {
        "claim": "witness_equality",
        "game": games.game_to_text(game),
        "rat": list(names),
    }


@_check("epist2", LOCAL_BUILTINS)
def epist2_identity(rng, cfg, pool):
    """With singleton truth, common knowledge of rationality excludes nothing."""
    game, names, profile = _random_profile(rng, cfg, pool)
    report = epistemic.check_theorem_epist2(profile)
    if report.ok and report.hypothesis_ok:
        return None
    return {
        "game": games.game_to_text(game),
        "rat": list(names),
        "hypothesis_ok": report.hypothesis_ok,
        "lhs": [sorted(part) for part in report.lhs.sets],
    }


@_check("just")
def just_chain(rng, cfg):
    """Pointwise: best response to a joint strategy is not strictly dominated,
    and the global dominance property implies the local one."""
    game = random_game(rng, cfg)
    brg = profile_named(game, "br_g")
    sdg = profile_named(game, "sd_g")
    sdl = profile_named(game, "sd_l")
    for G in games.all_restrictions(game, budget=cfg.budget):
        for i in range(game.n):
            a, b, c = (prop[i].survivors(G, G.sets[i]) for prop in (brg, sdg, sdl))
            bad = (a - b) | (b - c)
            if bad:
                s = min(bad)
                return {
                    "game": games.game_to_text(game),
                    "restriction": G.describe(),
                    "player": i + 1,
                    "strategy": game.name(i, s),
                    "values": {"br_g": s in a, "sd_g": s in b, "sd_l": s in c},
                }
    big = operators.iterate_to_outcome(sdl).outcome
    small = operators.iterate_to_outcome(brg).outcome
    if games.restriction_leq(small, big):
        return None
    return {
        "game": games.game_to_text(game),
        "outcome_br_g": small.describe(),
        "outcome_sd_l": big.describe(),
    }


def _br_model(rng, cfg, outcome_name, belief_class):
    """Common belief or knowledge of best-response rationality (with beliefs
    of belief_class) stays within the outcome of outcome_name."""
    n = rng.randint(cfg.min_players, cfg.max_players)
    game = random_game(rng, cfg, n, lp_heavy=_lp_heavy([outcome_name]))
    rat = profile_named(game, "br_g", belief_class)
    outcome = profile_named(game, outcome_name)
    for mode in ("belief", "knowledge"):
        model = epistemic.random_model(rng, game, cfg.max_states, mode)
        if not _belief_inclusion_holds(model, rat, outcome, mode):
            return _inclusion_payload(
                game, model, ["br_g"] * n, [outcome_name] * n, mode, belief_class
            )
    return None


_check("just", name="just_model")(partial(_br_model, outcome_name="sd_l", belief_class=None))


@_check("just1")
def just1_pearce(rng, cfg):
    """Correlated best response and mixed strict dominance induce the same
    elimination operator on every restriction."""
    game = random_game(rng, cfg, lp_heavy=True)
    brc = profile_named(game, "brc_l")
    msd = profile_named(game, "msd_l")
    for G in games.all_restrictions(game, budget=cfg.budget):
        left = operators.apply_T(brc, G)
        right = operators.apply_T(msd, G)
        if left != right:
            return {
                "game": games.game_to_text(game),
                "restriction": G.describe(),
                "brc_l": left.describe(),
                "msd_l": right.describe(),
            }
    return None


_check("just1", name="just1_model")(
    partial(_br_model, outcome_name="msd_l", belief_class="correlated")
)


@_check("just", PURE_BUILTINS + ("msd_l", "msd_g"))
def operator_laws(rng, cfg, pool):
    """The operator deflates, stages shrink to a fixpoint, and for monotone
    profiles the iteration outcome is the largest postfixpoint."""
    game, names, profile = _random_profile(rng, cfg, pool)
    G = rng.choice(list(games.all_restrictions(game, budget=cfg.budget)))
    image = operators.apply_T(profile, G)
    if not games.restriction_leq(image, G):
        return {"game": games.game_to_text(game), "reason": "not deflationary"}
    trace = operators.iterate_to_outcome(profile)
    for earlier, later in zip(trace.stages, trace.stages[1:]):
        if not games.restriction_leq(later, earlier):
            return {"game": games.game_to_text(game), "reason": "stage grew"}
    outcome = trace.outcome
    if operators.apply_T(profile, outcome) != outcome:
        return {"game": games.game_to_text(game), "reason": "outcome not fixed"}
    if all(p.monotone for p in profile):
        largest = operators.largest_fixpoint_via_postfixpoints(profile)
        if largest != outcome:
            return {
                "game": games.game_to_text(game),
                "rat": list(names),
                "reason": "largest postfixpoint differs from the iteration",
            }
    return None


@_check("just")
def local_global_outcome(rng, cfg):
    """Each dominance or best-response notion eliminates to the same outcome
    whether dominators are drawn locally or globally."""
    base = rng.choice(PAIR_BASES)
    heavy = base in ("msd", "mwd")
    game = random_game(rng, cfg, lp_heavy=heavy)
    left = operators.iterate_to_outcome(profile_named(game, f"{base}_l")).outcome
    right = operators.iterate_to_outcome(profile_named(game, f"{base}_g")).outcome
    if left == right:
        return None
    return {
        "game": games.game_to_text(game),
        "base": base,
        "local": left.describe(),
        "global": right.describe(),
    }


@_check("notes")
def gfp_characterizations(rng, cfg):
    """Common belief of an event agrees with its two fixpoint descriptions,
    plus the evident-event one on knowledge models."""
    game = random_game(rng, cfg)
    mode = "knowledge" if rng.random() < 0.5 else "belief"
    model = epistemic.random_model(rng, game, min(cfg.max_states, 8), mode)
    event = random_event(rng, model)
    report = epistemic.check_fixed_point_characterizations(model, event)
    if all(report.values()):
        return None
    return {
        "game": games.game_to_text(game),
        "model": _model_payload(model),
        "event": sorted(event),
        "report": report,
    }


@_check("notes", PURE_BUILTINS)
def common_belief_formula(rng, cfg, pool):
    """The fixpoint rendering of common belief matches the event operator."""
    game, names, profile = _random_profile(rng, cfg, pool)
    model = epistemic.random_belief_model(rng, game, cfg.max_states)
    psi = random_l_formula(rng, game)
    lhs = logic.eval_lnu(model, logic.common_belief(psi), profile)
    rhs = epistemic.common_box(model, logic.eval_lnu(model, psi, profile))
    if lhs == rhs:
        return None
    return {
        "game": games.game_to_text(game),
        "model": _model_payload(model),
        "rat": list(names),
        "formula": logic.pretty(psi),
        "fixpoint": sorted(lhs),
        "operator": sorted(rhs),
    }


@_check("notes", MONOTONE_BUILTINS)
def survival_formula(rng, cfg, pool):
    """The strategies picked inside the optimality fixpoint survive
    elimination; on the canonical model the two coincide."""
    game, names, profile = _random_profile(rng, cfg, pool)
    formula = logic.Nu(logic.Opt(None, logic.Var()))
    outcome = operators.iterate_to_outcome(profile).outcome

    model = random_bare_model(rng, game, cfg.max_states)
    event = logic.eval_lnu(model, formula, profile)
    induced = epistemic.restriction_of(model, event)
    if not games.restriction_leq(induced, outcome):
        return {
            "game": games.game_to_text(game),
            "model": _model_payload(model),
            "rat": list(names),
            "induced": induced.describe(),
            "outcome": outcome.describe(),
        }
    standard = epistemic.standard_model(game.full_restriction())
    ev2 = logic.eval_lnu(standard, formula, profile)
    if ev2 == epistemic.event_of_restriction(standard, outcome):
        return None
    return {
        "game": games.game_to_text(game),
        "rat": list(names),
        "fixpoint_event": sorted(ev2),
        "outcome": outcome.describe(),
    }


@_check("notes")
def note_7_1_proper(rng, cfg):
    """A proper announcement turns the canonical model of a game into the
    canonical model of the announced restriction."""
    game = random_game(rng, cfg)
    targets = tuple(
        frozenset(
            s for s in game.strategies(i) if rng.random() < 0.7
        )
        for i in range(game.n)
    )
    for with_corr in (False, True):
        model = epistemic.standard_model(
            game.full_restriction(), correspondences=with_corr
        )
        events = tuple(
            frozenset(
                w for w in model.states() if model.strategy_of(i, w) in targets[i]
            )
            for i in range(game.n)
        )
        if not announcements.is_proper(model, events):
            return {
                "game": games.game_to_text(game),
                "reason": "cylinder announcement not recognized as proper",
            }
        result = announcements.effect(model, events)
        target = epistemic.standard_model(
            games.Restriction(game, targets), correspondences=with_corr
        )
        if not announcements.models_equal_via_profiles(
            result, target, check_correspondences=with_corr
        ):
            return {
                "game": games.game_to_text(game),
                "targets": [sorted(part) for part in targets],
                "reason": "effect is not the canonical model of the target",
            }
    return None


@_check("notes", BUILTIN_NAMES)
def note_7_2_operator(rng, cfg, pool):
    """Announcing optimality on the canonical model acts exactly like one
    application of the elimination operator."""
    game, names, profile = _random_profile(rng, cfg, pool)
    for G in games.all_restrictions(game, budget=cfg.budget):
        if any(not part for part in G.sets):
            continue
        model = epistemic.standard_model(G)
        events = tuple(
            announcements.optimality_event(model, profile[i], G)
            for i in range(game.n)
        )
        announced = announcements.announced_restriction(model, events)
        if announced != operators.apply_T(profile, G):
            return {
                "game": games.game_to_text(game),
                "rat": list(names),
                "restriction": G.describe(),
                "announced": announced.describe(),
            }
    return None


@_check("notes")
def note_7_4_pinned(rng, cfg):
    """In the canonical knowledge model a player's possibility set pins their
    own strategy and leaves the others free."""
    game = random_game(rng, cfg)
    restriction = None
    for _ in range(20):
        candidate = games.Restriction(
            game,
            tuple(
                frozenset(s for s in game.strategies(i) if rng.random() < 0.8)
                for i in range(game.n)
            ),
        )
        if not candidate.is_empty():
            restriction = candidate
            break
    if restriction is None:
        restriction = game.full_restriction()
    model = epistemic.standard_model(restriction, correspondences=True)
    for i in range(game.n):
        for w in model.states():
            pinned = epistemic.pinned_restriction(model, i, w)
            expected = tuple(
                frozenset([model.strategy_of(i, w)])
                if j == i
                else restriction.sets[j]
                for j in range(game.n)
            )
            if pinned.sets != expected:
                return {
                    "game": games.game_to_text(game),
                    "restriction": restriction.describe(),
                    "player": i + 1,
                    "state": model.state_names[w],
                    "pinned": pinned.describe(),
                }
    return None


_FORMULA3 = logic.parse_lnu("rat & CB(rat) -> nu x. O x")


@_check("logic", MONOTONE_BUILTINS)
def formula3_valid(rng, cfg, pool):
    """rat & CB(rat) -> nu x. O x holds everywhere on belief models."""
    game, names, profile = _random_profile(rng, cfg, pool)
    model = epistemic.random_belief_model(rng, game, cfg.max_states)
    if logic.eval_lnu(model, _FORMULA3, profile) == model.all_event():
        return None
    return {
        "game": games.game_to_text(game),
        "model": _model_payload(model),
        "rat": list(names),
    }


@_check("logic", ("sd_g", "br_g"))
def formula4_rat(rng, cfg, pool):
    """Rationality is the conjunction 'every believed event is optimal'."""
    game, names, profile = _random_profile(rng, cfg, pool)
    model = epistemic.random_belief_model(rng, game, min(cfg.max_states, 6))
    if logic.check_rat_definability(model, profile):
        return None
    return {
        "game": games.game_to_text(game),
        "model": _model_payload(model),
        "rat": list(names),
    }


@_check("logic", ("sd_g", "br_g"))
def nu_postfixpoints(rng, cfg, pool):
    """eval_lnu returns the largest postfixpoint of a fixpoint's body."""
    game, names, profile = _random_profile(rng, cfg, pool)
    model = epistemic.random_belief_model(rng, game, min(cfg.max_states, 6))
    body = random_positive_body(rng, game)
    E = logic.eval_lnu(model, logic.Nu(body), profile)
    body_of = logic.lnu_denotation(model, body, profile)
    if body_of(E) != E:
        return {
            "game": games.game_to_text(game),
            "model": _model_payload(model),
            "body": logic.pretty(body),
            "reason": "fixpoint equation fails",
        }
    for F in games.subsets_of(model.states()):
        F = frozenset(F)
        if F <= body_of(F) and not F <= E:
            return {
                "game": games.game_to_text(game),
                "model": _model_payload(model),
                "body": logic.pretty(body),
                "reason": f"postfixpoint {sorted(F)} escapes the fixpoint",
            }
    return None


@_check("logic")
def positivity_monotone(rng, cfg):
    """Exactly two of the six conditions are positive, and the positive ones
    compile to monotone properties."""
    positives = sorted(
        name
        for name in logic.LO_TEXTS
        if logic.check_positive_lo(logic.parse_lo(logic.lo_text(name, 0)))
    )
    if positives != ["br_g", "sd_g"]:
        return {"reason": f"positive set came out as {positives}"}
    game = random_game(rng, cfg, n=2, lp_heavy=True)
    for name in positives:
        prop = logic.compile_lo_to_property(logic.lo_text(name, 0), game, 0, name)
        report = optimality.is_monotonic_on(prop, budget=cfg.budget)
        if not report.monotonic:
            s, smaller, larger = report.counterexample
            return {
                "game": games.game_to_text(game),
                "condition": name,
                "strategy": game.name(0, s),
                "smaller": smaller.describe(),
                "larger": larger.describe(),
            }
    return None


@_check("logic")
def compiled_agreement(rng, cfg):
    """Compiled conditions agree with the builtin properties on restrictions
    with no empty component."""
    game = random_game(rng, cfg, lp_heavy=True)
    for name in logic.LO_TEXTS:
        for i in range(game.n):
            compiled = logic.compile_lo_to_property(
                logic.lo_text(name, i), game, i, name
            )
            builtin = optimality.builtin(game, name, i)
            everyone = game.strategies(i)
            for G in games.all_restrictions(game, budget=cfg.budget):
                if any(not part for part in G.sets):
                    continue
                differ = compiled.survivors(G, everyone) ^ builtin.survivors(G, everyone)
                if differ:
                    return {
                        "game": games.game_to_text(game),
                        "condition": name,
                        "player": i + 1,
                        "strategy": game.name(i, min(differ)),
                        "restriction": G.describe(),
                    }
    return None


BUNDLED_DERIVATION = """\
# elimination via the fixpoint rule, in four steps
axiom ratDis psi=CB(rat) & rat
axiom nuDis psi=Box(x & rat)
prop from=1,2 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)
nuInd from=3 chi=CB(rat) & rat psi=O x
"""

TAMPERED_DERIVATIONS = (
    # wrong induction hypothesis shape
    "axiom ratDis psi=CB(rat) & rat\n"
    "axiom nuDis psi=Box(x & rat)\n"
    "prop from=1,2 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)\n"
    "nuInd from=3 chi=rat psi=O x\n",
    # conclusion drops a premise and stops being a consequence
    "axiom ratDis psi=CB(rat) & rat\n"
    "axiom nuDis psi=Box(x & rat)\n"
    "prop from=1,2 conclude=CB(rat) -> O(CB(rat) & rat)\n",
    # fixpoint body changed, the propositional step no longer goes through
    "axiom ratDis psi=CB(rat) & rat\n"
    "axiom nuDis psi=Box(x) & rat\n"
    "prop from=1,2 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)\n",
    # induction with a body that ignores the variable
    "axiom ratDis psi=CB(rat) & rat\n"
    "axiom nuDis psi=Box(x & rat)\n"
    "prop from=1,2 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)\n"
    "nuInd from=3 chi=CB(rat) & rat psi=O rat\n",
    # duplicated premise cannot replace the missing one
    "axiom ratDis psi=CB(rat) & rat\n"
    "prop from=1,1 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)\n",
    # forward reference
    "axiom ratDis psi=CB(rat) & rat\n"
    "prop from=1,2 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)\n",
    # axiom instantiated with an open formula
    "axiom ratDis psi=x & rat\n",
    # negative fixpoint body
    "axiom nuDis psi=!x\n",
    # commuted conjunction is not structurally equal
    "axiom ratDis psi=CB(rat) & rat\n"
    "axiom nuDis psi=Box(x & rat)\n"
    "prop from=1,2 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)\n"
    "nuInd from=3 chi=rat & CB(rat) psi=O x\n",
    # induction pointed at the wrong step
    "axiom ratDis psi=CB(rat) & rat\n"
    "axiom nuDis psi=Box(x & rat)\n"
    "prop from=1,2 conclude=(CB(rat) & rat) -> O(CB(rat) & rat)\n"
    "nuInd from=2 chi=CB(rat) & rat psi=O x\n",
)


@_check("logic", fixed=True)
def derivation_valid():
    """The bundled derivation validates and every tampered variant fails."""
    report = logic.check_derivation(logic.parse_derivation(BUNDLED_DERIVATION))
    if not report.valid:
        bad = next(r for r in report.steps if not r.ok)
        return 1, f"step {bad.index}: {bad.reason}", None
    expected = logic.impl(
        logic.AndF(logic.common_belief(logic.Rat(None)), logic.Rat(None)),
        logic.Nu(logic.Opt(None, logic.Var())),
    )
    if report.steps[-1].formula != expected:
        return 1, "final formula is not the target", None
    for k, text in enumerate(TAMPERED_DERIVATIONS):
        tampered = logic.check_derivation(logic.parse_derivation(text))
        if tampered.valid:
            return k + 2, f"tampered variant {k + 1} was accepted", {"derivation": text}
    return 1 + len(TAMPERED_DERIVATIONS), "", None


@_check("announce")
def condition_a_globals(rng, cfg):
    """The global properties never read the owner's own component."""
    game = random_game(rng, cfg, lp_heavy=True)
    for name in GLOBAL_BUILTINS:
        for i in range(game.n):
            report = optimality.satisfies_condition_A(
                optimality.builtin(game, name, i), budget=cfg.budget
            )
            if not report.independent:
                return {
                    "game": games.game_to_text(game),
                    "property": name,
                    "player": i + 1,
                }
    return None


@_check("announce", BUILTIN_NAMES)
def announce_optimality(rng, cfg, pool):
    """Iterated optimality announcements terminate in the canonical model of
    the elimination outcome, for any of the builtin properties."""
    game, names, profile = _random_profile(rng, cfg, pool)
    trace = announcements.iterate_optimality_announcements(profile)
    outcome = operators.iterate_to_outcome(profile).outcome
    target = epistemic.standard_model(outcome)
    for m in trace.models:
        if not announcements.is_standard(m):
            return {
                "game": games.game_to_text(game),
                "rat": list(names),
                "reason": "intermediate model lost standardness",
            }
    if announcements.models_equal_via_profiles(
        trace.terminal, target, check_correspondences=False
    ):
        return None
    return {
        "game": games.game_to_text(game),
        "rat": list(names),
        "terminal": list(trace.terminal.state_names),
        "outcome": outcome.describe(),
    }


@_check("announce")
def announce_rationality(rng, cfg):
    """Iterated rationality announcements: global properties land on the
    canonical knowledge model of the outcome (shared by the local variant),
    local properties announce nothing at all."""
    base = rng.choice(PAIR_BASES)
    heavy = base in ("msd", "mwd")
    game = random_game(rng, cfg, lp_heavy=heavy)
    global_profile = profile_named(game, f"{base}_g")
    trace = announcements.iterate_rationality_announcements(
        global_profile, check_condition=False
    )
    outcome_g = operators.iterate_to_outcome(global_profile)
    target = epistemic.standard_model(outcome_g.outcome, correspondences=True)
    if not announcements.models_equal_via_profiles(trace.terminal, target):
        return {
            "game": games.game_to_text(game),
            "rat": [f"{base}_g"] * game.n,
            "terminal": list(trace.terminal.state_names),
            "outcome": outcome_g.outcome.describe(),
        }
    if trace.rounds != outcome_g.closure_ordinal:
        return {
            "game": games.game_to_text(game),
            "rat": [f"{base}_g"] * game.n,
            "reason": f"{trace.rounds} rounds vs ordinal {outcome_g.closure_ordinal}",
        }
    outcome_l = operators.iterate_to_outcome(profile_named(game, f"{base}_l")).outcome
    if not announcements.models_equal_via_profiles(
        trace.terminal,
        epistemic.standard_model(outcome_l, correspondences=True),
    ):
        return {
            "game": games.game_to_text(game),
            "rat": [f"{base}_g"] * game.n,
            "reason": "terminal differs from the local-variant outcome model",
        }
    local_trace = announcements.iterate_rationality_announcements(
        profile_named(game, f"{base}_l"), check_condition=False
    )
    if local_trace.rounds != 0:
        return {
            "game": games.game_to_text(game),
            "rat": [f"{base}_l"] * game.n,
            "reason": "local properties announced something",
        }
    return None


SUITES["all"] = tuple(CHECKS)


def select(suite, properties=None):
    """The checks a suite, or a single check, runs. Given properties must be
    builtin names within the pool of every selected check that has one, and
    at least one selected check must have a pool, or they would go unused."""
    if suite in SUITES:
        names = SUITES[suite]
    elif suite in CHECKS:
        names = (suite,)
    else:
        raise KeyError(f"unknown suite or check {suite!r}; suites: {', '.join(SUITES)}")
    if properties is not None:
        for nm in properties:
            if nm not in BUILTIN_NAMES:
                raise ValueError(f"unknown property {nm!r}")
        pooled = [name for name in names if name in CHECK_POOLS]
        if not pooled:
            raise ValueError(
                f"{suite} draws no properties; checks that do: {', '.join(CHECK_POOLS)}"
            )
        for name in pooled:
            pool = CHECK_POOLS[name]
            if not set(properties) <= set(pool):
                raise ValueError(
                    f"check {name} only accepts properties from: {', '.join(pool)}"
                )
    return names


def run_check(name, cfg):
    """Run one check; cfg.properties must lie in its pool, and a check
    without a pool ignores them."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}")
    select(name, cfg.properties if name in CHECK_POOLS else None)
    return CHECKS[name](cfg)


def run_suite(suite, cfg, jobs=1):
    """Run a suite (or a single check) and return the results in registry
    order; results do not depend on the number of worker processes.
    cfg.properties are checked by select first."""
    names = select(suite, cfg.properties)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            return list(pool.map(run_check, names, [cfg] * len(names)))
    return [run_check(name, cfg) for name in names]
