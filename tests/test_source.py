"""Properties of the package source itself."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "epigame"


def test_no_assert_statements_in_the_package():
    """Guards must survive `python -O`, which strips assert statements."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def _unused_imports(tree):
    """Names a module imports and never reads; names in a literal __all__
    list count as read (a computed __all__ names nothing here)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert not found, f"unused imports in the package: {', '.join(found)}"


def _names_read(tree):
    """(line, name) for every name, attribute and imported name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_no_dead_private_helpers_in_the_package():
    """Every private module-level function or class is named somewhere outside
    its own definition, so a helper that lost its last caller fails here."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    reads = {name: list(_names_read(tree)) for name, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not (
                node.name.startswith("_") and not node.name.endswith("__")
            ):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (where != module or line not in own)
                       for where, found in reads.items() for line, name in found):
                dead.append(f"{module}:{node.lineno} {node.name}")
    assert not dead, f"private helpers nothing names: {', '.join(dead)}"


def test_benchmark_layer_targets_resolve():
    """Every layer the benchmark's tracer wraps still exists, so renaming one
    fails here instead of silently dropping its per-layer metrics."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for target in tracer.TARGETS:
        module, *attrs = target.split(".")
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in attrs:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(target)
    assert tracer.TARGETS and not missing, f"tracer targets not found: {', '.join(missing)}"


def test_every_builtin_has_a_set_wise_rule():
    """apply_T asks each property for a player's whole set; a builtin without
    its own rule would silently fall back to one holds call per strategy."""
    from epigame.games import load_game_file
    from epigame.optimality import BUILTIN_NAMES, builtin, constant_property

    game = load_game_file(ROOT / "data" / "pd.game")
    props = [builtin(game, name, 0) for name in BUILTIN_NAMES]
    props += [builtin(game, name, 0, belief_class=cls)
              for name in ("br_l", "br_g") for cls in ("pure", "correlated", "mixed")]
    assert [prop.name for prop in props if prop.rule is None] == []
    assert constant_property(game, 0).rule is None  # the holds filter is the default


def _innermost_functions(tree):
    """line -> the name of the innermost function around it"""
    owner = {}
    for node in ast.walk(tree):  # outer functions come first, inner ones overwrite
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
    return owner


def test_holds_is_called_only_by_the_oracles():
    """Callers decide a whole set with survivors; only the oracles that test
    what properties declare ask holds, one strategy at a time."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        owner = _innermost_functions(ast.parse(text, filename=str(path)))
        found += [
            (path.name, owner.get(lineno))
            for lineno, line in enumerate(text.splitlines(), start=1)
            if ".holds(" in line
        ]
    assert sorted(found) == [
        ("optimality.py", "satisfies_singleton_truth"),
        ("optimality.py", "value_table"),
    ]


def test_pearce_is_called_only_by_the_set_wise_rule_and_the_witness_search():
    """One set-wise dominance rule: undominated runs Pearce's LP for sd, wd,
    msd, mwd and the best responses, _mixed_dominator for the witnesses of
    mixed_*_dominates_exists, and _by_cells for the cells of independent
    beliefs and the points it tries in them. A further caller would be a
    second path to keep in step with them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _innermost_functions(tree)
        found += [
            (path.name, owner.get(node.lineno))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "_pearce" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert sorted(found) == [
        ("dominance.py", "_by_cells"),
        ("dominance.py", "_by_cells"),
        ("dominance.py", "_mixed_dominator"),
        ("dominance.py", "undominated"),
    ]


def test_own_independent_is_read_only_where_it_is_trusted():
    """Condition A's declaration is trusted by the rationality announcements'
    screening alone; the verdicts the global builtins share are kept on the
    cut rows of the opponents' part, and the rationality event keys its
    cells by the whole strategy image, so no memo, event, holds, survivors
    or oracle reads the declaration."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _innermost_functions(tree)
        found += [
            (path.name, owner.get(node.lineno))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "own_independent"
        ]
    assert sorted(found) == [
        ("announcements.py", "iterate_rationality_announcements"),
    ]
