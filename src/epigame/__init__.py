"""Iterated elimination of non-optimal strategies in finite games, with the
epistemic models, fixpoint logic and public announcements that justify it.

Importing the package loads none of its modules: each exported name, and each
module, is imported on first access (PEP 562), so a command that needs only
the solver never compiles the logic, the epistemic models or the checks.
"""

import importlib

# module -> the names it exports
_EXPORTS = {
    "announcements": (
        "effect", "is_proper", "iterate_optimality_announcements",
        "iterate_rationality_announcements",
    ),
    "checks": ("CheckConfig", "CheckResult", "run_check", "run_suite"),
    "epistemic": ("EpistemicModel", "common_box", "load_model_file", "standard_model"),
    "games": ("Game", "GameFormatError", "MixedStrategy", "Restriction", "load_game",
              "load_game_file"),
    "logic": ("check_derivation", "compile_lo_to_property", "eval_lnu", "eval_lo",
              "lnu_denotation", "parse_derivation", "parse_lnu", "parse_lo"),
    "operators": ("apply_T", "iterate_to_outcome"),
    "optimality": ("BUILTIN_NAMES", "OptimalityProperty", "builtin", "profile_named"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli", "dominance", "lp"}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULES:  # importing a module binds it here, so this runs once
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
