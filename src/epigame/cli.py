"""Command line front end.

Commands: solve (iterated elimination), announce (public announcements on a
game or a model file), eval (formula evaluation on a model), check (randomized
cross-checks), derive (derivation validation). Exit codes: 0 on success, 1
when a check fails or a derivation is invalid, 2 on usage or format errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
import warnings

# Users run one command per process, so each handler imports the modules it
# runs and no command compiles the others; main needs games for its errors.
from . import games


@functools.cache  # parse_args keeps no state between calls
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="epigame",
        description="Iterated elimination of non-optimal strategies and its "
        "epistemic foundations.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    parser.add_argument(
        "--format",
        choices=("text", "json-lines"),
        default="text",
        help="output style",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="iterate the elimination operator on a game")
    solve.add_argument("game", help="path to a .game file")
    solve.add_argument(
        "--property",
        default="sd_l",
        help="builtin property name, or a comma list with one name per player",
    )
    solve.add_argument(
        "--belief-class",
        choices=("pure", "mixed", "correlated"),
        default=None,
        help="beliefs used by the best response properties",
    )
    solve.add_argument("--trace", action="store_true", help="print every stage")

    announce = sub.add_parser(
        "announce", help="announce events on a model, or iterate announcements"
    )
    announce.add_argument("path", help="a .game or .emodel file")
    announce.add_argument("--property", default=None, help="builtin property names")
    announce.add_argument(
        "--rationality",
        action="store_true",
        help="announce rationality instead of plain optimality",
    )
    announce.add_argument(
        "--events",
        default=None,
        help="one announcement: per-player state groups joined by '|', "
        "state names within a group joined by ','",
    )
    announce.add_argument("--emit-model", default=None, help="write the result here")

    evalp = sub.add_parser("eval", help="evaluate a formula on a model file")
    evalp.add_argument("model", help="path to an .emodel file")
    evalp.add_argument("--formula", required=True)
    evalp.add_argument(
        "--property",
        default=None,
        help="builtin property names, needed when the formula mentions rat or O",
    )
    evalp.add_argument("--belief-class", choices=("pure", "mixed", "correlated"), default=None)

    check = sub.add_parser("check", help="run randomized cross-checks")
    check.add_argument("suite", help="a suite or single check name")
    check.add_argument("--random", type=int, default=20, help="instances per check")
    check.add_argument("--property", default=None, help="restrict the property pool")
    check.add_argument("--jobs", type=int, default=1)
    check.add_argument("--max-players", type=int, default=3)
    check.add_argument("--max-strategies", type=int, default=4)
    check.add_argument("--max-states", type=int, default=8)
    check.add_argument(
        "--budget-restrictions",
        type=int,
        default=10,
        help="total strategy cap for restriction enumeration",
    )

    derive = sub.add_parser("derive", help="validate a derivation file")
    derive.add_argument("file")
    return parser


def _emit(args, payload, text_lines):
    if args.format == "json-lines":
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_model(out_path, model, game_path, base_dir, level):
    """Write the model to out_path, with a game reference that resolves from
    out_path's directory. Commands call it before they print, so a failed
    write leaves no answer on stdout, and the text is made before the file
    is opened, so a game path the format cannot hold leaves no file."""
    from . import epistemic

    ref = os.path.relpath(os.path.join(base_dir, game_path),
                          os.path.dirname(os.path.abspath(out_path)))
    text = epistemic.model_to_text(model, ref, level)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------- commands ----------


def _cmd_solve(args):
    from . import operators, optimality

    game = games.load_game_file(args.game)
    profile = optimality.profile_named(game, args.property, args.belief_class)
    trace = operators.iterate_to_outcome(profile)
    payload = None  # the names of every stage, built only when printed
    if args.format == "json-lines":
        payload = {
            "property": [p.name for p in profile],
            "stages": [
                [sorted(game.name(i, s) for s in part) for i, part in enumerate(G.sets)]
                for G in trace.stages
            ],
            "outcome": [
                sorted(game.name(i, s) for s in part)
                for i, part in enumerate(trace.outcome.sets)
            ],
            "closure_ordinal": trace.closure_ordinal,
        }
    lines = [f"property: {','.join(p.name for p in profile)}"]
    if args.trace:
        lines.extend(operators.serialize_trace(trace).splitlines())
    lines.append(f"outcome: {trace.outcome.describe()}")
    lines.append(f"closure ordinal: {trace.closure_ordinal}")
    _emit(args, payload, lines)
    return 0


def _parse_events(model, text):
    groups = text.split("|")
    if len(groups) != model.game.n:
        raise ValueError(
            f"expected {model.game.n} event groups separated by '|', got {len(groups)}"
        )
    # A state name may hold commas (standard_model names a state 'D,D'), so a
    # run of consecutive pieces is one state when, joined with ',', it names
    # one; the longest run first, and a single piece is read as it is.
    longest = 1 + max((nm.count(",") for nm in model.state_names), default=0)
    named = frozenset(model.state_names)
    events = []
    for group in groups:
        pieces = group.split(",")
        states = []
        k = 0
        while k < len(pieces):
            end = next((m for m in range(min(len(pieces), k + longest), k + 1, -1)
                        if ",".join(pieces[k:m]).strip() in named), k + 1)
            name = ",".join(pieces[k:end]).strip()
            if name:
                states.append(model.state_index(name))
            k = end
        events.append(frozenset(states))
    return tuple(events)


def _announce_game(args):
    from . import announcements, epistemic, optimality

    game = games.load_game_file(args.path)
    if args.events is not None:
        raise ValueError("--events applies to model files; game files iterate")
    profile = optimality.profile_named(game, args.property or "sd_l")
    if args.rationality:
        trace = announcements.iterate_rationality_announcements(profile)
        level = "knowledge"
    else:
        trace = announcements.iterate_optimality_announcements(profile)
        level = "bare"
    terminal = trace.terminal
    induced = epistemic.restriction_of(terminal, terminal.all_event())
    payload = {
        "rounds": trace.rounds,
        "states": list(terminal.state_names),
        "restriction": [
            sorted(game.name(i, s) for s in part) for i, part in enumerate(induced.sets)
        ],
    }
    lines = [f"rounds: {trace.rounds}"]
    for k, model in enumerate(trace.models):
        lines.append(f"round {k} states: {' '.join(model.state_names) or '(none)'}")
    lines.append(f"terminal restriction: {induced.describe()}")
    if args.emit_model:
        _write_model(args.emit_model, terminal, args.path, ".", level)
    _emit(args, payload, lines)
    return 0


def _announce_model(args):
    from . import announcements, epistemic, optimality

    if args.events is not None and (args.property is not None or args.rationality):
        raise ValueError("--events announces one event; --property and --rationality "
                         "apply to iterated announcements")
    loaded = epistemic.load_model_file(args.path)
    model = loaded.model
    if args.events is None:
        if args.property is None:
            raise ValueError("model announcements need --events or --property")
        profile = optimality.profile_named(model.game, args.property)
        if args.rationality:
            trace = announcements.iterate_rationality_announcements(profile, start=model)
        else:
            trace = announcements.iterate_optimality_announcements(profile, start=model)
        result = trace.terminal
        payload = {"rounds": trace.rounds, "states": list(result.state_names)}
        lines = [f"rounds: {trace.rounds}", f"states: {' '.join(result.state_names) or '(none)'}"]
    else:
        events = _parse_events(model, args.events)
        result = announcements.effect(model, events)
        announced = announcements.announced_restriction(model, events)
        missed = announcements.misses_announced_restriction(model, events)
        payload = {
            "proper": announcements.is_proper(model, events),
            "states": list(result.state_names),
            "announced_restriction": [
                sorted(model.game.name(i, s) for s in part)
                for i, part in enumerate(announced.sets)
            ],
            "not_a_model_of_announced": missed,
        }
        lines = [
            f"proper: {'yes' if payload['proper'] else 'no'}",
            f"surviving states: {' '.join(result.state_names) or '(none)'}",
            f"announced restriction: {announced.describe()}",
        ]
        if missed:
            lines.append(
                "warning: no state survives, so the result is not a model "
                "of the announced restriction"
            )
    if args.emit_model:
        level = loaded.level
        if epistemic.validate(result, level):
            level = "bare"
        _write_model(args.emit_model, result, loaded.game_path,
                     os.path.dirname(args.path) or ".", level)
    _emit(args, payload, lines)
    return 0


def _cmd_announce(args):
    # the library warns through the warnings module; each distinct warning of
    # this command is one 'warning:' line, however often the process saw it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.path.endswith(".game"):
                return _announce_game(args)
            if args.path.endswith(".emodel"):
                return _announce_model(args)
            raise ValueError("announce expects a .game or .emodel path")
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def _cmd_eval(args):
    from . import epistemic, logic, optimality

    if args.belief_class is not None and args.property is None:
        raise ValueError("--belief-class applies to --property")
    loaded = epistemic.load_model_file(args.model)
    model = loaded.model
    formula = logic.parse_lnu(args.formula)
    profile = None
    if args.property is not None:
        profile = optimality.profile_named(model.game, args.property, args.belief_class)
    elif any(isinstance(node, (logic.Rat, logic.Opt)) for node in logic.walk(formula)):
        raise ValueError("the formula mentions rat or O: supply --property")
    event = logic.eval_lnu(model, formula, profile)
    valid = event == model.all_event()
    payload = {
        "holds_at": [model.state_names[w] for w in sorted(event)],
        "valid": valid,
    }
    lines = [
        "holds at: " + (" ".join(payload["holds_at"]) or "(nowhere)"),
        f"valid: {'yes' if valid else 'no'}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_check(args):
    import dataclasses
    import json

    from . import checks

    properties = None
    if args.property is not None:
        properties = tuple(nm.strip() for nm in args.property.split(","))
    cfg = checks.CheckConfig(
        seed=args.seed,
        count=args.random,
        max_players=args.max_players,
        # no --min-strategies: the default minimum, down to --max-strategies
        # where that is smaller, or to 1, so 0 is refused as max_strategies
        min_strategies=min(checks.CheckConfig.min_strategies, max(args.max_strategies, 1)),
        max_strategies=args.max_strategies,
        max_states=args.max_states,
        budget=args.budget_restrictions,
        properties=properties,
    )
    start = time.time()
    results = checks.run_suite(args.suite, cfg, jobs=args.jobs)
    for result in results:
        if args.format == "json-lines":
            print(json.dumps(dataclasses.asdict(result), sort_keys=True))
        elif result.passed:
            print(f"PASS {result.name} ({result.instances} instances)")
        else:
            print(f"FAIL {result.name} ({result.instances} instances): {result.detail}")
            if result.counterexample is not None:
                print("  " + json.dumps(result.counterexample, sort_keys=True))
    failed = sum(1 for r in results if not r.passed)
    if args.format == "text":
        print(f"{len(results)} checks: {len(results) - failed} passed, {failed} failed")
    print(f"elapsed: {time.time() - start:.2f}s", file=sys.stderr)
    return 1 if failed else 0


def _cmd_derive(args):
    from . import logic

    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    steps = logic.parse_derivation(text)
    report = logic.check_derivation(steps)
    payload = {
        "valid": report.valid,
        "steps": [
            {
                "index": sr.index,
                "ok": sr.ok,
                "formula": None if sr.formula is None else logic.pretty(sr.formula),
                "reason": sr.reason,
            }
            for sr in report.steps
        ],
    }
    lines = []
    for sr in report.steps:
        if sr.ok:
            lines.append(f"step {sr.index} ok: {logic.pretty(sr.formula)}")
        else:
            lines.append(f"step {sr.index} FAILED: {sr.reason}")
    lines.append("Valid" if report.valid else "Invalid")
    _emit(args, payload, lines)
    return 0 if report.valid else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "announce": _cmd_announce,
        "eval": _cmd_eval,
        "check": _cmd_check,
        "derive": _cmd_derive,
    }
    try:
        return handlers[args.command](args)
    except (games.BudgetExceededError, OSError, ValueError, KeyError) as exc:
        # Every format, parse, evaluation and property error is a ValueError.
        # str() of a KeyError is the repr of its message, quotes included.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
