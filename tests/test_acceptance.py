"""Acceptance gate: fifteen behavioral criteria, one printed line each.

The PASS/FAIL lines bypass pytest's capture, so they appear in any run.
Every criterion draws from its own seeded generator, so reruns are exact
repeats.
"""

import json
import random
import time
from pathlib import Path

from epigame.announcements import (
    effect,
    iterate_optimality_announcements,
    iterate_rationality_announcements,
    misses_announced_restriction,
    models_equal_via_profiles,
)
from epigame.checks import (
    BUNDLED_DERIVATION,
    TAMPERED_DERIVATIONS,
    CheckConfig,
    _lp_heavy,
    random_game,
    random_l_formula,
)
from epigame.cli import main as cli_main
from epigame.epistemic import (
    check_theorem_epist1,
    check_theorem_epist2,
    common_box,
    construct_witness,
    load_model_file,
    random_belief_model,
    random_knowledge_model,
    rat_event,
    restriction_of,
    standard_model,
)
from epigame.games import all_restrictions, full_profile, load_game_file, restriction_leq
from epigame.logic import (
    AndF,
    Box,
    Nu,
    Var,
    check_derivation,
    compile_lo_to_property,
    eval_lnu,
    lo_text,
    parse_derivation,
    parse_lnu,
)
from epigame.lp import LinearProgram, Optimal, solve
from epigame.operators import apply_T, iterate_to_outcome
from epigame.optimality import (
    BUILTIN_NAMES,
    MONOTONE_BUILTINS,
    builtin,
    is_monotonic_on,
    profile_named,
)

DATA = Path(__file__).resolve().parents[1] / "data"

LOCALS = ("sd_l", "msd_l", "wd_l", "mwd_l", "br_l", "brc_l")
GLOBALS = ("sd_g", "msd_g", "wd_g", "mwd_g", "br_g")
PURE = ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g")


def _report(num, label, ok, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}{tail}", flush=True)
    assert ok, f"criterion {num}: {label}{tail}"


def _rng(num):
    return random.Random(f"acceptance:{num}")


def _mixed_names(rng, pool, n):
    return [rng.choice(pool) for _ in range(n)]


def test_criterion_01_pd_fixed_point(capsys):
    code = cli_main(["--format", "json-lines", "solve", str(DATA / "pd.game"), "--property", "sd_l"])
    payload = json.loads(capsys.readouterr().out.strip())
    ok = (
        code == 0
        and payload["outcome"] == [["D"], ["D"]]
        and payload["closure_ordinal"] == 1
    )
    with capsys.disabled():
        _report(1, "prisoner's dilemma solves to ({D},{D}) in one round", ok)


def test_criterion_02_mixed_vs_pure_separation(capsys):
    game = load_game_file(DATA / "threebytwo.game")
    started = time.perf_counter()
    pure = iterate_to_outcome(profile_named(game, "sd_l")).outcome
    mixed = iterate_to_outcome(profile_named(game, "msd_l")).outcome
    elapsed = time.perf_counter() - started
    B = game.index(0, "B")
    ok = (
        pure.sets[0] == frozenset(game.strategies(0))
        and B not in mixed.sets[0]
        and mixed.sets[0] == frozenset({game.index(0, "T"), game.index(0, "M")})
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(2, "pure elimination keeps B, mixed elimination removes it", ok,
                f"{elapsed:.3f}s")


def test_criterion_03_belief_and_knowledge_inclusion(capsys):
    rng = _rng(3)
    cfg = CheckConfig(count=0)
    passed = total = 0
    for kind in ("belief", "knowledge"):
        for _ in range(200):
            game = random_game(rng, cfg)
            model = (
                random_belief_model(rng, game, cfg.max_states)
                if kind == "belief"
                else random_knowledge_model(rng, game, cfg.max_states)
            )
            total += 1
            reports = [
                check_theorem_epist1(model, profile_named(game, nm), mode=kind)
                for nm in ("sd_g", "br_g")
            ]
            if all(r.ok for r in reports):
                passed += 1
    with capsys.disabled():
        _report(3, "common belief of rationality stays inside the outcome", passed == 400,
                f"{passed}/{total}")


def test_criterion_04_witness_equality(capsys):
    rng = _rng(4)
    cfg = CheckConfig(count=0)
    passed = 0
    for _ in range(100):
        names = _mixed_names(rng, MONOTONE_BUILTINS, rng.randint(2, 3))
        game = random_game(rng, cfg, n=len(names), lp_heavy=_lp_heavy(names))
        profile = tuple(builtin(game, nm, i) for i, nm in enumerate(names))
        witness = construct_witness(profile)
        event = common_box(witness, rat_event(witness, profile))
        lhs = restriction_of(witness, event)
        if lhs == iterate_to_outcome(profile).outcome:
            passed += 1
    with capsys.disabled():
        _report(4, "the witness model attains the outcome exactly", passed == 100,
                f"{passed}/100")


def test_criterion_05_locals_exclude_nothing(capsys):
    rng = _rng(5)
    cfg = CheckConfig(count=0)
    passed = total = 0
    for name in LOCALS:
        for _ in range(50):
            game = random_game(rng, cfg, lp_heavy=_lp_heavy([name]))
            total += 1
            report = check_theorem_epist2(profile_named(game, name))
            if report.hypothesis_ok and report.ok:
                passed += 1
    with capsys.disabled():
        _report(5, "under singleton truth, common knowledge of rationality is the full game",
                passed == total, f"{passed}/{total}")


def test_criterion_06_justification_chain(capsys):
    rng = _rng(6)
    cfg = CheckConfig(count=0)
    passed = 0
    for _ in range(100):
        game = random_game(rng, cfg)
        br = profile_named(game, "br_g")
        sd_g = profile_named(game, "sd_g")
        sd_l = profile_named(game, "sd_l")
        good = all(
            restriction_leq(apply_T(br, G), apply_T(sd_g, G))
            and restriction_leq(apply_T(sd_g, G), apply_T(sd_l, G))
            for G in all_restrictions(game)
        )
        good = good and restriction_leq(
            iterate_to_outcome(br).outcome, iterate_to_outcome(sd_l).outcome
        )
        if good:
            passed += 1
    with capsys.disabled():
        _report(6, "best response refines strict dominance pointwise and in the outcome",
                passed == 100, f"{passed}/100")


def _margin_lp_undominated(game, G, i, s):
    """msd_l decided by an LP of its own on the mixture side: maximize eps
    over weights w >= 0 on G_i with sum w <= 1 and eps - sum_d w_d (u(d, c)
    - u(s, c)) <= 0 in every context c of G; s survives when the optimum is
    at most 0. Without contexts eps is unbounded: every mixture dominates
    vacuously."""
    support = sorted(G.sets[i])
    k = len(support)
    lp = LinearProgram(k + 1, [0] * k + [1])
    for ctx in G.opponent_profiles(i):
        mine = game.payoff(i, full_profile(i, s, ctx))
        lp.add([mine - game.payoff(i, full_profile(i, d, ctx)) for d in support] + [1], 0)
    lp.add([1] * k + [0], 1)
    res = solve(lp)
    return isinstance(res, Optimal) and res.value <= 0


def test_criterion_07_pearce_equivalence(capsys):
    # brc_l and msd_l share one LP in the program, so the msd_l side is
    # decided here by the margin LP, which shares nothing with it but lp.solve
    rng = _rng(7)
    cfg = CheckConfig(count=0)
    passed = total = 0
    for _ in range(50):
        game = random_game(rng, cfg, n=2, lp_heavy=True)  # at most 3x3
        brc = profile_named(game, "brc_l")
        for G in all_restrictions(game):
            total += 1
            msd = tuple(frozenset(s for s in part if _margin_lp_undominated(game, G, i, s))
                        for i, part in enumerate(G.sets))
            if apply_T(brc, G).sets == msd:
                passed += 1
    with capsys.disabled():
        _report(7, "correlated best response equals mixed undominatedness on every restriction",
                passed == total, f"{passed}/{total}")


def test_criterion_08_local_global_outcome_identity(capsys):
    rng = _rng(8)
    cfg = CheckConfig(count=0)
    passed = total = 0
    for base in ("sd", "wd", "msd", "mwd", "br"):
        pair = (f"{base}_l", f"{base}_g")
        for _ in range(100):
            game = random_game(rng, cfg, lp_heavy=_lp_heavy(pair))
            total += 1
            a = iterate_to_outcome(profile_named(game, pair[0])).outcome
            b = iterate_to_outcome(profile_named(game, pair[1])).outcome
            if a == b:
                passed += 1
    with capsys.disabled():
        _report(8, "local and global variants share one outcome", passed == 500,
                f"{passed}/{total}")


def test_criterion_09_common_belief_fixpoint_formula(capsys):
    rng = _rng(9)
    cfg = CheckConfig(count=0)
    passed = total = 0
    for _ in range(100):
        game = random_game(rng, cfg)
        model = random_belief_model(rng, game, 6)
        profile = tuple(
            builtin(game, nm, i)
            for i, nm in enumerate(_mixed_names(rng, PURE, game.n))
        )
        for _ in range(20):
            psi = random_l_formula(rng, game)
            total += 1
            wrapped = Nu(Box(None, AndF(Var(), psi)))
            lhs = eval_lnu(model, wrapped, profile)
            rhs = common_box(model, eval_lnu(model, psi, profile))
            if lhs == rhs:
                passed += 1
    with capsys.disabled():
        _report(9, "the fixpoint formula computes common belief", passed == 2000,
                f"{passed}/{total}")


def test_criterion_10_rationality_formula_validity(capsys):
    rng = _rng(10)
    cfg = CheckConfig(count=0)
    formula = parse_lnu("(rat & CB(rat)) -> nu x. O x")
    passed = 0
    for _ in range(500):
        names = _mixed_names(rng, MONOTONE_BUILTINS, rng.randint(2, 3))
        game = random_game(rng, cfg, n=len(names), lp_heavy=_lp_heavy(names))
        model = random_belief_model(rng, game, 6)
        profile = tuple(builtin(game, nm, i) for i, nm in enumerate(names))
        if eval_lnu(model, formula, profile) == model.all_event():
            passed += 1
    with capsys.disabled():
        _report(10, "true common belief of rationality implies surviving forever",
                passed == 500, f"{passed}/500")


def test_criterion_11_derivation_and_tampers(capsys):
    valid = check_derivation(parse_derivation(BUNDLED_DERIVATION)).valid
    rejected = sum(
        1
        for text in TAMPERED_DERIVATIONS
        if not check_derivation(parse_derivation(text)).valid
    )
    ok = valid and rejected == len(TAMPERED_DERIVATIONS) == 10
    with capsys.disabled():
        _report(11, "the bundled derivation validates and all ten tampers fail", ok,
                f"tampers rejected {rejected}/10")


def test_criterion_12_optimality_announcements_reach_the_outcome(capsys):
    rng = _rng(12)
    cfg = CheckConfig(count=0)
    passed = total = 0
    for name in BUILTIN_NAMES:
        for _ in range(50):
            game = random_game(rng, cfg, lp_heavy=_lp_heavy([name]))
            profile = profile_named(game, name)
            total += 1
            trace = iterate_optimality_announcements(profile)
            target = standard_model(iterate_to_outcome(profile).outcome)
            if models_equal_via_profiles(
                trace.terminal, target, check_correspondences=False
            ):
                passed += 1
    with capsys.disabled():
        _report(12, "iterated optimality announcements end at the standard outcome model",
                passed == total, f"{passed}/{total} over 11 properties")


def test_criterion_13_rationality_announcements(capsys):
    rng = _rng(13)
    cfg = CheckConfig(count=0)
    passed = 0
    for _ in range(100):
        gname = rng.choice(GLOBALS)
        lname = rng.choice(LOCALS)
        game = random_game(rng, cfg, lp_heavy=_lp_heavy([gname, lname]))
        gtrace = iterate_rationality_announcements(
            profile_named(game, gname), check_condition=False
        )
        target = standard_model(
            iterate_to_outcome(profile_named(game, gname)).outcome,
            correspondences=True,
        )
        ltrace = iterate_rationality_announcements(
            profile_named(game, lname), check_condition=False
        )
        if (
            models_equal_via_profiles(gtrace.terminal, target)
            and len(ltrace.models) == 1
            and ltrace.terminal is ltrace.models[0]
        ):
            passed += 1
    with capsys.disabled():
        _report(13, "global rationality announcements match elimination; local ones are silent",
                passed == 100, f"{passed}/100")


def test_criterion_14_bundled_non_proper_announcement(capsys):
    loaded = load_model_file(DATA / "fig2.emodel")
    events = (
        frozenset({loaded.model.state_index("w_ul")}),
        frozenset({loaded.model.state_index("w_dr")}),
    )
    library_ok = (
        effect(loaded.model, events).num_states == 0
        and misses_announced_restriction(loaded.model, events)
    )
    code = cli_main(["announce", str(DATA / "fig2.emodel"), "--events", "w_ul|w_dr"])
    out = capsys.readouterr().out
    cli_ok = code == 0 and "not a model of the announced restriction" in out
    with capsys.disabled():
        _report(14, "the bundled announcement empties the model and is flagged",
                library_ok and cli_ok)


def test_criterion_15_positivity_monotonicity_link(capsys):
    rng = _rng(15)
    cfg = CheckConfig(count=0)
    passed = total = 0
    for _ in range(25):
        game = random_game(rng, cfg, n=2, lp_heavy=True)
        for name in ("sd_g", "br_g"):
            for i in range(2):
                prop = compile_lo_to_property(lo_text(name, i), game, i, name)
                total += 1
                if is_monotonic_on(prop).monotonic:
                    passed += 1
    witness_game = load_game_file(DATA / "wd_witness.game")
    wd_report = is_monotonic_on(builtin(witness_game, "wd_g", 0))
    ok = passed == total and not wd_report.monotonic
    with capsys.disabled():
        _report(15, "compiled positive conditions are monotone; wd_g fails on the witness",
                ok, f"{passed}/{total} compiled")
