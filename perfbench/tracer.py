"""Outside-in tracer: spans around epigame's layer functions, from outside.

Each target is wrapped at every place it is bound: the defining module, every
epigame module that imported it by name (``dominance.solve`` is ``lp.solve``),
and the package namespace. Methods are wrapped on their class. A target that
no longer exists is listed in ``missing`` and the run goes on without it.

Spans (id, name, start, end, parent id, op id) are kept in memory, all of
them, and written out by ``write``. Calls outside an op (``op is None``) pass
straight through, so verifiers that call the API are not counted.

A value the tracer reads besides the time (the rows of an LP) is read in a
guard: if it cannot be read, the reading is listed in ``missing`` and the op
goes on unharmed, so a later change to a wrapped function's signature does
not break the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

PACKAGE = "epigame"

TARGETS = (
    "lp.solve",
    "dominance.strictly_dominates",
    "dominance.weakly_dominates",
    "dominance.mixed_strictly_dominates_exists",
    "dominance.mixed_weakly_dominates_exists",
    "dominance.is_best_response",
    "optimality.OptimalityProperty.holds",
    "optimality.value_table",
    "optimality.require_monotone",
    "optimality.satisfies_condition_A",
    "optimality.is_monotonic_on",
    "operators.apply_T",
    "operators.iterate_to_outcome",
    "operators.largest_fixpoint_via_postfixpoints",
    "games.load_game",
    "epistemic.load_model_file",
    "epistemic.rationality_event",
    "epistemic.common_box",
    "epistemic.standard_model",
    "epistemic.check_theorem_epist1",
    "logic.eval_lnu",
    "logic.eval_lo",
    "logic.check_derivation",
    "announcements.effect",
    "announcements.iterate_optimality_announcements",
    "announcements.iterate_rationality_announcements",
    "checks.run_check",
    "cli.main",
)
# Targets whose results also feed a ratio: LP rows and optimal outcomes, and
# mixed-dominance searches that found a dominator.
LP_TARGET = "lp.solve"
HIT_TARGETS = (
    "dominance.mixed_strictly_dominates_exists",
    "dominance.mixed_weakly_dominates_exists",
)
# The reading behind rows_mean, listed in ``missing`` when it fails.
LP_ROWS = "lp.solve.rows"
# Enumerations that refuse big games by raising BudgetExceededError.
REFUSING_TARGETS = ("optimality.value_table",)


def per_layer_names():
    """(metric name, unit, better) for everything ``metrics`` reports."""
    out = []
    for target in TARGETS:
        out.append((f"{target}.calls", "count", "lower"))
        out.append((f"{target}.s", "s", "lower"))
        out.append((_self_name(target), "s", "lower"))
    out += [
        ("lp.solve.rows_mean", "rows", "lower"),
        ("lp.solve.optimal_ratio", "ratio", "higher"),
    ]
    out += [(f"{t}.hit_ratio", "ratio", "higher") for t in HIT_TARGETS]
    out += [(f"{t}.refused_ratio", "ratio", "lower") for t in REFUSING_TARGETS]
    out += [
        ("trace.op_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.missing", "count", "lower"),
    ]
    return out


def _self_name(target):
    # The CLI's own time is argument parsing and output formatting.
    return "cli.self_s" if target == "cli.main" else f"{target}.self_s"


class Tracer:
    def __init__(self):
        self.op = None
        self.missing = []
        self.bindings = {}  # target -> places it was wrapped
        n = len(TARGETS)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.raised = [0] * n
        self.lp_rows = 0
        self.lp_rows_read = 0  # calls whose LP rows could be read
        self.lp_optimal = 0
        self.hits = {t: 0 for t in HIT_TARGETS}
        self._stack = []  # (child-time cell, span id) of open spans
        self._next_id = 0
        self._spans = {k: array(c) for k, c in (
            ("id", "q"), ("name", "i"), ("start", "d"), ("end", "d"), ("parent", "q"), ("op", "i"),
        )}
        self._restore = []
        self._t0 = time.perf_counter()

    # ---------- wrapping ----------

    def install(self):
        prefix = PACKAGE + "."
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(prefix)
        }
        for index, target in enumerate(TARGETS):
            module_name, _, attr = target.partition(".")
            owner = modules.get(prefix + module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(target)
                continue
            wrapper = self._wrap(index, target, fn)
            places = []
            if outer:
                self._set(owner, leaf, wrapper)
                places.append(target)
            else:
                for name, mod in modules.items():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapper)
                            short = name[len(prefix):] if name != PACKAGE else name
                            places.append(f"{short}.{key}")
            self.bindings[target] = sorted(places)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _set(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, index, target, fn):
        tracer = self
        perf = time.perf_counter
        lp = target == LP_TARGET
        hit = target in HIT_TARGETS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            span = tracer._next_id
            tracer._next_id += 1
            cell = [0.0]
            stack.append((cell, span))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[index] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                spent = end - start
                tracer.calls[index] += 1
                tracer.total[index] += spent
                tracer.self_time[index] += spent - cell[0]
                if stack:
                    stack[-1][0][0] += spent
                tracer._record(span, index, start, end, parent)
            if lp:
                tracer._count_lp(args, kwargs, result)
            elif hit:
                tracer.hits[target] += result is not None
            return result

        return wrapper

    def _count_lp(self, args, kwargs, result):
        self.lp_optimal += type(result).__name__ == "Optimal"
        try:
            program = args[0] if args else next(iter(kwargs.values()))
            rows = len(program.rows)
        except Exception:  # the LP changed shape: note it, never fail the op
            if LP_ROWS not in self.missing:
                self.missing.append(LP_ROWS)
            return
        self.lp_rows += rows
        self.lp_rows_read += 1

    def _record(self, span, index, start, end, parent):
        s = self._spans
        s["id"].append(span)
        s["name"].append(index)
        s["start"].append(start - self._t0)
        s["end"].append(end - self._t0)
        s["parent"].append(parent)
        s["op"].append(self.op)

    # ---------- results ----------

    def metrics(self):
        out = {}
        for index, target in enumerate(TARGETS):
            out[f"{target}.calls"] = self.calls[index]
            out[f"{target}.s"] = self.total[index]
            out[_self_name(target)] = self.self_time[index]
        lp_calls = self.calls[TARGETS.index(LP_TARGET)]
        read = self.lp_rows_read
        out["lp.solve.rows_mean"] = self.lp_rows / read if read else 0.0
        out["lp.solve.optimal_ratio"] = self.lp_optimal / lp_calls if lp_calls else 0.0
        for target in HIT_TARGETS:
            calls = self.calls[TARGETS.index(target)]
            out[f"{target}.hit_ratio"] = self.hits[target] / calls if calls else 0.0
        for target in REFUSING_TARGETS:
            index = TARGETS.index(target)
            calls = self.calls[index]
            out[f"{target}.refused_ratio"] = self.raised[index] / calls if calls else 0.0
        out["trace.missing"] = len(self.missing)
        return out

    def write(self, path):
        """One JSON object: a header, then the spans one per line, in the
        order they ended, streamed so that no second copy is built."""
        s = self._spans
        head = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "order": "spans in the order they ended",
            "bindings": self.bindings,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1] + ', "spans": [')
            for k in range(len(s["id"])):
                row = [s["id"][k], TARGETS[s["name"][k]], round(s["start"][k], 7),
                       round(s["end"][k], 7), s["parent"][k], s["op"][k]]
                fh.write(("\n" if k == 0 else ",\n") + json.dumps(row))
            fh.write("\n]}\n")
