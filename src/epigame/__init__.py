"""Iterated elimination of non-optimal strategies in finite games, with the
epistemic models, fixpoint logic and public announcements that justify it.

Importing the package loads none of its modules: each exported name, and each
module, is imported on first access (PEP 562), so a command that needs only
the solver never compiles the logic, the epistemic models or the checks.
"""

import importlib

# exported name -> the module that defines it
_MODULE_OF = {
    "BUILTIN_NAMES": "optimality",
    "CheckConfig": "checks",
    "CheckResult": "checks",
    "EpistemicModel": "epistemic",
    "Game": "games",
    "GameFormatError": "games",
    "MixedStrategy": "games",
    "OptimalityProperty": "optimality",
    "Restriction": "games",
    "apply_T": "operators",
    "builtin": "optimality",
    "check_derivation": "logic",
    "common_box": "epistemic",
    "compile_lo_to_property": "logic",
    "effect": "announcements",
    "eval_lnu": "logic",
    "eval_lo": "logic",
    "is_proper": "announcements",
    "iterate_optimality_announcements": "announcements",
    "iterate_rationality_announcements": "announcements",
    "iterate_to_outcome": "operators",
    "lnu_denotation": "logic",
    "load_game": "games",
    "load_game_file": "games",
    "load_model_file": "epistemic",
    "parse_derivation": "logic",
    "parse_lnu": "logic",
    "parse_lo": "logic",
    "profile_named": "optimality",
    "run_check": "checks",
    "run_suite": "checks",
    "standard_model": "epistemic",
}

_MODULES = frozenset((
    "announcements", "checks", "cli", "dominance", "epistemic", "games", "logic", "lp",
    "operators", "optimality",
))

__all__ = [
    "BUILTIN_NAMES",
    "CheckConfig",
    "CheckResult",
    "EpistemicModel",
    "Game",
    "GameFormatError",
    "MixedStrategy",
    "OptimalityProperty",
    "Restriction",
    "apply_T",
    "builtin",
    "check_derivation",
    "common_box",
    "compile_lo_to_property",
    "effect",
    "eval_lnu",
    "eval_lo",
    "is_proper",
    "iterate_optimality_announcements",
    "iterate_rationality_announcements",
    "iterate_to_outcome",
    "lnu_denotation",
    "load_game",
    "load_game_file",
    "load_model_file",
    "parse_derivation",
    "parse_lnu",
    "parse_lo",
    "profile_named",
    "run_check",
    "run_suite",
    "standard_model",
]


def __getattr__(name):
    if name in _MODULES:  # importing a module binds it here, so this runs once
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
