"""Iterated elimination of non-optimal strategies in finite games, with the
epistemic models, fixpoint logic and public announcements that justify it."""

from .announcements import (
    effect,
    is_proper,
    iterate_optimality_announcements,
    iterate_rationality_announcements,
)
from .checks import CheckConfig, CheckResult, run_check, run_suite
from .epistemic import (
    EpistemicModel,
    common_box,
    load_model_file,
    standard_model,
)
from .games import (
    Game,
    GameFormatError,
    MixedStrategy,
    Restriction,
    load_game,
    load_game_file,
)
from .logic import (
    check_derivation,
    compile_lo_to_property,
    eval_lnu,
    eval_lo,
    lnu_denotation,
    parse_derivation,
    parse_lnu,
    parse_lo,
)
from .operators import apply_T, iterate_to_outcome
from .optimality import BUILTIN_NAMES, OptimalityProperty, builtin, profile_named

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
