"""Randomized cross-checks between the elimination operator, the epistemic
models, the two languages and the announcement dynamics.

Every check draws its own generator seeded from (seed, check name), so results
do not depend on how many checks run or in which order. A failing check
returns a counterexample payload built only from plain data (file texts and
name lists); verify_counterexample replays the central inclusion claims from
such a payload alone.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import announcements, epistemic, games, logic, operators, optimality
from .optimality import BUILTIN_NAMES, MONOTONE_BUILTINS

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
        # A negative count would run nothing and pass; smaller sizes leave the
        # random generators empty ranges to draw from.
        for option, smallest in (
            ("count", 0),
            ("max_players", self.min_players),
            ("max_strategies", 1),
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
    """A random game within the size bounds; lp_heavy shrinks the strategy
    sets so that checks running many small linear programs stay fast."""
    if n is None:
        n = rng.randint(cfg.min_players, cfg.max_players)
    cap = (3 if n == 2 else 2) if lp_heavy else cfg.max_strategies
    lo = min(cfg.min_strategies, cap)
    for _ in range(200):
        sizes = [rng.randint(lo, cap) for _ in range(n)]
        if sum(sizes) <= cfg.budget:
            break
    else:
        raise games.BudgetExceededError("no game size fits the strategy budget")
    names = tuple(tuple(_strategy_name(k) for k in range(size)) for size in sizes)
    table = {}
    for profile in itertools.product(*(range(size) for size in sizes)):
        table[profile] = tuple(
            Fraction(rng.randint(-cfg.payoff_bound, cfg.payoff_bound))
            for _ in range(n)
        )
    return games.Game(names, table)


def _lp_heavy(names):
    return any(nm.startswith(("msd", "mwd")) or nm == "brc_l" for nm in names)


def _profile(game, names, belief_class=None):
    if isinstance(names, str):
        names = [names] * game.n
    return tuple(
        optimality.builtin(
            game, nm, i, belief_class if nm in ("br_l", "br_g") else None
        )
        for i, nm in enumerate(names)
    )


def _pick_names(rng, cfg, pool, n):
    pool = cfg.properties or pool
    return [rng.choice(pool) for _ in range(n)]


def _random_profile(rng, cfg, pool):
    """A random game and one property per player, names drawn from the pool."""
    n = rng.randint(cfg.min_players, cfg.max_players)
    names = _pick_names(rng, cfg, pool, n)
    game = random_game(rng, cfg, n, lp_heavy=_lp_heavy(names))
    return game, names, _profile(game, names)


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
    players = [None] + list(range(game.n))
    if depth == 0 or rng.random() < 0.35:
        return logic.Rat(rng.choice(players))
    kind = rng.choice(("and", "not", "box", "opt"))
    if kind == "and":
        return logic.AndF(
            random_l_formula(rng, game, depth - 1),
            random_l_formula(rng, game, depth - 1),
        )
    if kind == "not":
        return logic.NotF(random_l_formula(rng, game, depth - 1))
    sub = random_l_formula(rng, game, depth - 1)
    if kind == "box":
        return logic.Box(rng.choice(players), sub)
    return logic.Opt(rng.choice(players), sub)


def random_positive_body(rng, game, depth=3, even=True):
    """A fixpoint body, positive in the variable by construction."""
    players = [None] + list(range(game.n))
    if depth == 0 or rng.random() < 0.3:
        if even and rng.random() < 0.5:
            return logic.Var()
        return logic.Rat(rng.choice(players))
    kind = rng.choice(("and", "not", "box", "opt"))
    if kind == "and":
        return logic.AndF(
            random_positive_body(rng, game, depth - 1, even),
            random_positive_body(rng, game, depth - 1, even),
        )
    if kind == "not":
        return logic.NotF(random_positive_body(rng, game, depth - 1, not even))
    sub = random_positive_body(rng, game, depth - 1, even)
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
    rat = epistemic.rat_event(model, rat_profile)
    event = epistemic.common_box(model, rat)
    if mode == "belief":
        event &= rat
    lhs = epistemic.restriction_of(model, event)
    outcome = operators.iterate_to_outcome(outcome_profile).outcome
    return games.restriction_leq(lhs, outcome)


def _witness_equality_holds(profile):
    witness = epistemic.construct_witness(profile)
    event = epistemic.common_box(witness, epistemic.rat_event(witness, profile))
    lhs = epistemic.restriction_of(witness, event)
    return lhs == operators.iterate_to_outcome(profile).outcome


def verify_counterexample(payload):
    """Replay a counterexample payload; True means the violation reproduces."""
    claim = payload["claim"]
    game = games.load_game(payload["game"])
    if claim == "inclusion":
        model = _restore_model(game, payload["model"])
        rat = _profile(game, payload["rat"], payload.get("belief_class"))
        out = _profile(game, payload["outcome"])
        return not _belief_inclusion_holds(model, rat, out, payload["mode"])
    if claim == "witness_equality":
        return not _witness_equality_holds(_profile(game, payload["rat"]))
    raise ValueError(f"cannot replay a counterexample for claim {claim!r}")


# ---------- the checks ----------


def _sweep(name, cfg, instance):
    rng = random.Random(f"{cfg.seed}:{name}")
    for k in range(cfg.count):
        payload = instance(rng)
        if payload is not None:
            payload.setdefault("claim", name)
            payload["check"] = name
            return CheckResult(
                name, False, k + 1, f"failed on instance {k + 1}", payload
            )
    return CheckResult(name, True, cfg.count)


def check_epist1_belief(cfg):
    """Common true belief of rationality only keeps surviving strategies."""

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, MONOTONE_BUILTINS)
        model = epistemic.random_belief_model(rng, game, cfg.max_states)
        if _belief_inclusion_holds(model, profile, profile, "belief"):
            return None
        return _inclusion_payload(game, model, names, names, "belief")

    return _sweep("epist1_belief", cfg, instance)


def check_epist1_knowledge(cfg):
    """Common knowledge of rationality only keeps surviving strategies."""

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, MONOTONE_BUILTINS)
        model = epistemic.random_knowledge_model(rng, game, cfg.max_states)
        if _belief_inclusion_holds(model, profile, profile, "knowledge"):
            return None
        return _inclusion_payload(game, model, names, names, "knowledge")

    return _sweep("epist1_knowledge", cfg, instance)


def check_epist1_witness(cfg):
    """Some knowledge model attains the outcome exactly."""

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, MONOTONE_BUILTINS)
        if _witness_equality_holds(profile):
            return None
        return {
            "claim": "witness_equality",
            "game": games.game_to_text(game),
            "rat": list(names),
        }

    return _sweep("epist1_witness", cfg, instance)


def check_epist2_identity(cfg):
    """With singleton truth, common knowledge of rationality excludes nothing."""

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, LOCAL_BUILTINS)
        report = epistemic.check_theorem_epist2(profile)
        if report.ok and report.hypothesis_ok:
            return None
        return {
            "game": games.game_to_text(game),
            "rat": list(names),
            "hypothesis_ok": report.hypothesis_ok,
            "lhs": [sorted(part) for part in report.lhs.sets],
        }

    return _sweep("epist2_identity", cfg, instance)


def check_just_chain(cfg):
    """Pointwise: best response to a joint strategy is not strictly dominated,
    and the global dominance property implies the local one."""

    def instance(rng):
        game = random_game(rng, cfg)
        brg = _profile(game, "br_g")
        sdg = _profile(game, "sd_g")
        sdl = _profile(game, "sd_l")
        for G in games.all_restrictions(game, budget=cfg.budget):
            for i in range(game.n):
                for s in G.strategies(i):
                    a, b, c = (
                        brg[i].holds(s, G),
                        sdg[i].holds(s, G),
                        sdl[i].holds(s, G),
                    )
                    if (a and not b) or (b and not c):
                        return {
                            "game": games.game_to_text(game),
                            "restriction": G.describe(),
                            "player": i + 1,
                            "strategy": game.name(i, s),
                            "values": {"br_g": a, "sd_g": b, "sd_l": c},
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

    return _sweep("just_chain", cfg, instance)


def check_just_model(cfg):
    """Common belief or knowledge of best-response rationality stays within
    the pure strict dominance outcome."""

    def instance(rng):
        n = rng.randint(cfg.min_players, cfg.max_players)
        game = random_game(rng, cfg, n)
        brg = _profile(game, "br_g")
        sdl_names = ["sd_l"] * n
        belief = epistemic.random_belief_model(rng, game, cfg.max_states)
        if not _belief_inclusion_holds(belief, brg, _profile(game, "sd_l"), "belief"):
            return _inclusion_payload(game, belief, ["br_g"] * n, sdl_names, "belief")
        knowledge = epistemic.random_knowledge_model(rng, game, cfg.max_states)
        if not _belief_inclusion_holds(
            knowledge, brg, _profile(game, "sd_l"), "knowledge"
        ):
            return _inclusion_payload(
                game, knowledge, ["br_g"] * n, sdl_names, "knowledge"
            )
        return None

    return _sweep("just_model", cfg, instance)


def check_just1_pearce(cfg):
    """Correlated best response and mixed strict dominance induce the same
    elimination operator on every restriction."""

    def instance(rng):
        game = random_game(rng, cfg, lp_heavy=True)
        brc = _profile(game, "brc_l")
        msd = _profile(game, "msd_l")
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

    return _sweep("just1_pearce", cfg, instance)


def check_just1_model(cfg):
    """Common belief or knowledge of best-response rationality with correlated
    beliefs stays within the mixed strict dominance outcome."""

    def instance(rng):
        n = rng.randint(cfg.min_players, cfg.max_players)
        game = random_game(rng, cfg, n, lp_heavy=True)
        brg = _profile(game, "br_g", belief_class="correlated")
        msd = _profile(game, "msd_l")
        belief = epistemic.random_belief_model(rng, game, cfg.max_states)
        if not _belief_inclusion_holds(belief, brg, msd, "belief"):
            return _inclusion_payload(
                game, belief, ["br_g"] * n, ["msd_l"] * n, "belief", "correlated"
            )
        knowledge = epistemic.random_knowledge_model(rng, game, cfg.max_states)
        if not _belief_inclusion_holds(knowledge, brg, msd, "knowledge"):
            return _inclusion_payload(
                game, knowledge, ["br_g"] * n, ["msd_l"] * n, "knowledge", "correlated"
            )
        return None

    return _sweep("just1_model", cfg, instance)


def check_gfp_characterizations(cfg):
    """Common belief of an event agrees with its two fixpoint descriptions,
    plus the evident-event one on knowledge models."""

    def instance(rng):
        game = random_game(rng, cfg)
        maker = (
            epistemic.random_knowledge_model
            if rng.random() < 0.5
            else epistemic.random_belief_model
        )
        model = maker(rng, game, min(cfg.max_states, 8))
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

    return _sweep("gfp_characterizations", cfg, instance)


def check_common_belief_formula(cfg):
    """The fixpoint rendering of common belief matches the event operator."""

    def instance(rng):
        n = rng.randint(cfg.min_players, cfg.max_players)
        names = _pick_names(rng, cfg, PURE_BUILTINS, n)
        game = random_game(rng, cfg, n)
        model = epistemic.random_belief_model(rng, game, cfg.max_states)
        profile = _profile(game, names)
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

    return _sweep("common_belief_formula", cfg, instance)


def check_survival_formula(cfg):
    """The strategies picked inside the optimality fixpoint survive
    elimination; on the canonical model the two coincide."""

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, MONOTONE_BUILTINS)
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

    return _sweep("survival_formula", cfg, instance)


def check_formula3_valid(cfg):
    """rat & CB(rat) -> nu x. O x holds everywhere on belief models."""
    formula = logic.parse_lnu("rat & CB(rat) -> nu x. O x")

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, MONOTONE_BUILTINS)
        model = epistemic.random_belief_model(rng, game, cfg.max_states)
        if logic.eval_lnu(model, formula, profile) == model.all_event():
            return None
        return {
            "game": games.game_to_text(game),
            "model": _model_payload(model),
            "rat": list(names),
        }

    return _sweep("formula3_valid", cfg, instance)


def check_formula4_rat(cfg):
    """Rationality is the conjunction 'every believed event is optimal'."""

    def instance(rng):
        n = rng.randint(cfg.min_players, cfg.max_players)
        names = _pick_names(rng, cfg, ("sd_g", "br_g"), n)
        game = random_game(rng, cfg, n)
        model = epistemic.random_belief_model(rng, game, min(cfg.max_states, 6))
        profile = _profile(game, names)
        if logic.check_rat_definability(model, profile):
            return None
        return {
            "game": games.game_to_text(game),
            "model": _model_payload(model),
            "rat": list(names),
        }

    return _sweep("formula4_rat", cfg, instance)


def check_nu_postfixpoints(cfg):
    """The fixpoint evaluator returns the largest postfixpoint of the body."""

    def instance(rng):
        n = rng.randint(cfg.min_players, cfg.max_players)
        names = _pick_names(rng, cfg, ("sd_g", "br_g"), n)
        game = random_game(rng, cfg, n)
        model = epistemic.random_belief_model(rng, game, min(cfg.max_states, 6))
        profile = _profile(game, names)
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

    return _sweep("nu_postfixpoints", cfg, instance)


def check_positivity_monotone(cfg):
    """Exactly two of the six conditions are positive, and the positive ones
    compile to monotone properties."""
    positives = {
        name
        for name in logic.LO_TEXTS
        if logic.check_positive_lo(logic.parse_lo(logic.lo_text(name, 0)))
    }
    if positives != {"sd_g", "br_g"}:
        return CheckResult(
            "positivity_monotone",
            False,
            1,
            f"positive set came out as {sorted(positives)}",
        )

    def instance(rng):
        game = random_game(rng, cfg, n=2, lp_heavy=True)
        for name in sorted(positives):
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

    return _sweep("positivity_monotone", cfg, instance)


def check_compiled_agreement(cfg):
    """Compiled conditions agree with the builtin properties on restrictions
    with no empty component."""

    def instance(rng):
        game = random_game(rng, cfg, lp_heavy=True)
        for name in logic.LO_TEXTS:
            for i in range(game.n):
                compiled = logic.compile_lo_to_property(
                    logic.lo_text(name, i), game, i, name
                )
                builtin = optimality.builtin(game, name, i)
                for G in games.all_restrictions(game, budget=cfg.budget):
                    if any(not part for part in G.sets):
                        continue
                    for s in game.strategies(i):
                        if compiled.holds(s, G) != builtin.holds(s, G):
                            return {
                                "game": games.game_to_text(game),
                                "condition": name,
                                "player": i + 1,
                                "strategy": game.name(i, s),
                                "restriction": G.describe(),
                            }
        return None

    return _sweep("compiled_agreement", cfg, instance)


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


def check_derivation_valid(cfg):
    """The bundled derivation validates and every tampered variant fails."""
    report = logic.check_derivation(logic.parse_derivation(BUNDLED_DERIVATION))
    if not report.valid:
        bad = next(r for r in report.steps if not r.ok)
        return CheckResult(
            "derivation_valid", False, 1, f"step {bad.index}: {bad.reason}"
        )
    expected = logic.impl(
        logic.AndF(logic.common_belief(logic.Rat(None)), logic.Rat(None)),
        logic.Nu(logic.Opt(None, logic.Var())),
    )
    if report.steps[-1].formula != expected:
        return CheckResult(
            "derivation_valid", False, 1, "final formula is not the target"
        )
    for k, text in enumerate(TAMPERED_DERIVATIONS):
        tampered = logic.check_derivation(logic.parse_derivation(text))
        if tampered.valid:
            return CheckResult(
                "derivation_valid",
                False,
                k + 2,
                f"tampered variant {k + 1} was accepted",
                {"derivation": text},
            )
    return CheckResult("derivation_valid", True, 1 + len(TAMPERED_DERIVATIONS))


def check_operator_laws(cfg):
    """The operator deflates, stages shrink to a fixpoint, and for monotone
    profiles the iteration outcome is the largest postfixpoint."""

    def instance(rng):
        game, names, profile = _random_profile(
            rng, cfg, PURE_BUILTINS + ("msd_l", "msd_g")
        )
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

    return _sweep("operator_laws", cfg, instance)


def check_local_global_outcome(cfg):
    """Each dominance or best-response notion eliminates to the same outcome
    whether dominators are drawn locally or globally."""

    def instance(rng):
        base = rng.choice(PAIR_BASES)
        heavy = base in ("msd", "mwd")
        game = random_game(rng, cfg, lp_heavy=heavy)
        left = operators.iterate_to_outcome(_profile(game, f"{base}_l")).outcome
        right = operators.iterate_to_outcome(_profile(game, f"{base}_g")).outcome
        if left == right:
            return None
        return {
            "game": games.game_to_text(game),
            "base": base,
            "local": left.describe(),
            "global": right.describe(),
        }

    return _sweep("local_global_outcome", cfg, instance)


def check_condition_a_globals(cfg):
    """The global properties never read the owner's own component."""

    def instance(rng):
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

    return _sweep("condition_a_globals", cfg, instance)


def check_note_7_2_operator(cfg):
    """Announcing optimality on the canonical model acts exactly like one
    application of the elimination operator."""

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, BUILTIN_NAMES)
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

    return _sweep("note_7_2_operator", cfg, instance)


def check_note_7_1_proper(cfg):
    """A proper announcement turns the canonical model of a game into the
    canonical model of the announced restriction."""

    def instance(rng):
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

    return _sweep("note_7_1_proper", cfg, instance)


def check_note_7_4_pinned(cfg):
    """In the canonical knowledge model a player's possibility set pins their
    own strategy and leaves the others free."""

    def instance(rng):
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

    return _sweep("note_7_4_pinned", cfg, instance)


def check_announce_optimality(cfg):
    """Iterated optimality announcements terminate in the canonical model of
    the elimination outcome, for any of the builtin properties."""

    def instance(rng):
        game, names, profile = _random_profile(rng, cfg, BUILTIN_NAMES)
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

    return _sweep("announce_optimality", cfg, instance)


def check_announce_rationality(cfg):
    """Iterated rationality announcements: global properties land on the
    canonical knowledge model of the outcome (shared by the local variant),
    local properties announce nothing at all."""

    def instance(rng):
        base = rng.choice(PAIR_BASES)
        heavy = base in ("msd", "mwd")
        game = random_game(rng, cfg, lp_heavy=heavy)
        global_profile = _profile(game, f"{base}_g")
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
        outcome_l = operators.iterate_to_outcome(_profile(game, f"{base}_l")).outcome
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
            _profile(game, f"{base}_l"), check_condition=False
        )
        if local_trace.rounds != 0:
            return {
                "game": games.game_to_text(game),
                "rat": [f"{base}_l"] * game.n,
                "reason": "local properties announced something",
            }
        return None

    return _sweep("announce_rationality", cfg, instance)


# ---------- registry ----------

CHECKS = {
    "epist1_belief": check_epist1_belief,
    "epist1_knowledge": check_epist1_knowledge,
    "epist1_witness": check_epist1_witness,
    "epist2_identity": check_epist2_identity,
    "just_chain": check_just_chain,
    "just_model": check_just_model,
    "just1_pearce": check_just1_pearce,
    "just1_model": check_just1_model,
    "operator_laws": check_operator_laws,
    "local_global_outcome": check_local_global_outcome,
    "gfp_characterizations": check_gfp_characterizations,
    "common_belief_formula": check_common_belief_formula,
    "survival_formula": check_survival_formula,
    "note_7_1_proper": check_note_7_1_proper,
    "note_7_2_operator": check_note_7_2_operator,
    "note_7_4_pinned": check_note_7_4_pinned,
    "formula3_valid": check_formula3_valid,
    "formula4_rat": check_formula4_rat,
    "nu_postfixpoints": check_nu_postfixpoints,
    "positivity_monotone": check_positivity_monotone,
    "compiled_agreement": check_compiled_agreement,
    "derivation_valid": check_derivation_valid,
    "condition_a_globals": check_condition_a_globals,
    "announce_optimality": check_announce_optimality,
    "announce_rationality": check_announce_rationality,
}

SUITES = {
    "epist1": ("epist1_belief", "epist1_knowledge", "epist1_witness"),
    "epist2": ("epist2_identity",),
    "just": ("just_chain", "just_model", "operator_laws", "local_global_outcome"),
    "just1": ("just1_pearce", "just1_model"),
    "notes": (
        "gfp_characterizations",
        "common_belief_formula",
        "survival_formula",
        "note_7_1_proper",
        "note_7_2_operator",
        "note_7_4_pinned",
    ),
    "logic": (
        "formula3_valid",
        "formula4_rat",
        "nu_postfixpoints",
        "positivity_monotone",
        "compiled_agreement",
        "derivation_valid",
    ),
    "announce": (
        "condition_a_globals",
        "announce_optimality",
        "announce_rationality",
    ),
}
SUITES["all"] = tuple(CHECKS)

# Which builtin names a check accepts through CheckConfig.properties; checks
# missing here draw fixed properties and ignore the override.
CHECK_POOLS = {
    "epist1_belief": MONOTONE_BUILTINS,
    "epist1_knowledge": MONOTONE_BUILTINS,
    "epist1_witness": MONOTONE_BUILTINS,
    "epist2_identity": LOCAL_BUILTINS,
    "common_belief_formula": PURE_BUILTINS,
    "survival_formula": MONOTONE_BUILTINS,
    "formula3_valid": MONOTONE_BUILTINS,
    "formula4_rat": ("sd_g", "br_g"),
    "nu_postfixpoints": ("sd_g", "br_g"),
    "operator_laws": PURE_BUILTINS + ("msd_l", "msd_g"),
    "note_7_2_operator": BUILTIN_NAMES,
    "announce_optimality": BUILTIN_NAMES,
}


def run_check(name, cfg):
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}")
    return CHECKS[name](cfg)


def run_suite(suite, cfg, jobs=1):
    """Run a suite (or a single check) and return the results in registry
    order; results do not depend on the number of worker processes."""
    if suite in SUITES:
        names = SUITES[suite]
    elif suite in CHECKS:
        names = (suite,)
    else:
        raise KeyError(f"unknown suite or check {suite!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            return list(pool.map(run_check, names, [cfg] * len(names)))
    return [run_check(name, cfg) for name in names]
