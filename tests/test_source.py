"""Properties of the package source itself."""

import ast
import dataclasses
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


def test_no_module_imports_another_modules_private_name():
    """A helper that another module needs is made public, so that its own
    module's private names stay its own business."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert not found, f"private names imported from another module: {', '.join(found)}"


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
    """Every property, builtin or not, decides through its rule alone: the
    rule is a required field, and no second way to decide rides along."""
    from epigame.optimality import OptimalityProperty

    assert tuple(field.name for field in dataclasses.fields(OptimalityProperty)) == (
        "name", "player", "game", "rule", "monotone", "own_independent")


def _innermost_functions(tree):
    """line -> the name of the innermost function around it"""
    owner = {}
    for node in ast.walk(tree):  # outer functions come first, inner ones overwrite
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
    return owner


def _callers(name, paths=None):
    """(module file, innermost function) of each call of `name`, sorted, in
    the given files or else in every module of the package."""
    found = []
    for path in paths or sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _innermost_functions(tree)
        found += [
            (path.name, owner.get(node.lineno))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    return sorted(found)


def test_holds_is_called_only_by_the_oracles():
    """Callers decide a whole set with survivors; value_table asks it once
    per restriction, and only the singleton-truth oracle asks holds, one
    point restriction at a time."""
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
    ]


def test_the_lattice_oracles_enumerate_only_in_value_table():
    """value_table decides each restriction once; is_monotonic_on and
    satisfies_condition_A read its entries, so optimality.py enumerates the
    lattice nowhere else and does not import subsets_of to build one."""
    path = SRC / "optimality.py"
    assert _callers("all_restrictions", [path]) == [("optimality.py", "value_table")]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "subsets_of" not in imported


def test_the_check_registry_alone_draws_pooled_instances():
    """The registry's run draws each pooled instance and names it in the
    counterexample, so no check makes that draw itself; the checks take
    their events from epistemic.every_event, not from subsets_of."""
    assert _callers("_random_profile") == [("checks.py", "run")]
    assert _callers("subsets_of", [SRC / "checks.py"]) == []


def test_both_formula_languages_share_one_propositional_core():
    """The modal and the first-order language build their negations and
    conjunctions from the same two nodes, and both parsers read '&' through
    the one conjunction rule of their shared cursor."""
    from epigame import logic

    assert {cls.__name__ for cls in logic._CHILD_FIELDS} == {
        "NotF", "AndF", "Box", "Opt", "Nu", "ExistsO"}
    assert "conjunction" in vars(logic._TokenCursor)
    assert "conjunction" not in vars(logic._LnuParser)
    assert "conjunction" not in vars(logic._LoParser)


def test_pearce_is_called_only_by_the_set_wise_pipeline_and_the_cells():
    """One set-wise dominance pipeline: _dominators runs Pearce's LP for
    msd, mwd and the best responses, and hands its dominator both to
    undominated and to the witnesses of mixed_*_dominates_exists; _by_cells
    runs it for the cells of independent beliefs and the points it tries in
    them. A further caller would be a second path to keep in step with them."""
    assert _callers("_pearce") == [
        ("dominance.py", "_by_cells"),
        ("dominance.py", "_by_cells"),
        ("dominance.py", "_dominators"),
    ]


def test_own_independent_is_read_only_where_it_is_trusted():
    """Condition A's declaration is trusted by the rationality announcements'
    screening alone; the rationality event keys its cells by the whole
    strategy image, so no event, holds, survivors or oracle reads the
    declaration."""
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


def test_the_shared_cuts_keep_rows_and_column_maxima_only():
    """The game keeps every cut it hands out for its own lifetime, so what a
    cut holds is paid for on every workload. The cut rows and the rivals'
    column maxima were measured to pay for themselves on the theorem
    checks; a further cache on them needs its own measurement and an edit
    here."""
    from epigame.games import _CutRows

    assert _CutRows.__slots__ == ("kernel_rows", "gather", "maxima")
