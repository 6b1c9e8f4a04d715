"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They are kept out of the repository's own suite (pytest's testpaths is
``tests``) and run against the sources in ``src``.
"""

from __future__ import annotations

import filecmp
import itertools
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _ops(workload, seed, root):
    """The first pass of a workload."""
    return workloads.build(workload, seed, str(root), 0)


def _first(ops, *words):
    return next(op for op in ops if all(w in op.argv for w in words))


@pytest.mark.parametrize("workload", ["solve-lp", "solve-pure", "epistemic"])
def test_generators_are_deterministic(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    keys_a = [op.key for k in range(2) for op in workloads.build(workload, 7, str(a), k)]
    keys_b = [op.key for k in range(2) for op in workloads.build(workload, 7, str(b), k)]
    workloads.build(workload, 8, str(c), 0)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    assert keys_a == keys_b
    assert any(not filecmp.cmp(a / n, c / n, shallow=False) for n in names if (c / n).exists())


def test_theorem_ops_follow_the_seed(tmp_path):
    first = [op.argv for op in _ops("theorems", 3, tmp_path)]
    again = [op.argv for op in _ops("theorems", 3, tmp_path)]
    other = [op.argv for op in _ops("theorems", 4, tmp_path)]
    # The check seeds come from the corpus; the benchmark seed orders the ops.
    assert first == again != other
    assert sorted(first) == sorted(other)
    assert len(first) == len(workloads.check_names()) * workloads.THEOREM_SEEDS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_input_repeats_across_passes(tmp_path, workload):
    passes = [workloads.build(workload, 3, str(tmp_path), k) for k in range(6)]
    keys = [op.key for ops in passes for op in ops]
    assert len(set(keys)) == len(keys)
    files = [{a for op in ops for a in op.argv if a.startswith(str(tmp_path))} for ops in passes]
    for k, mine in enumerate(files):
        for theirs in files[k + 1:]:
            assert not mine & theirs


def _tampered(text, line_start, transform):
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        if line.startswith(line_start):
            lines[k] = transform(line)
            return "".join(lines)
    raise AssertionError(f"no line starting with {line_start!r}")


def _drop_last_survivor(line):
    head, _, rest = line.partition(": ")
    parts = rest.rstrip("\n").split(" | ")
    names = parts[0].strip("{}").split(",")
    parts[0] = "{" + ",".join(names[:-1]) + "}"
    return f"{head}: {' | '.join(parts)}\n"


def test_verifier_accepts_and_rejects_pure_solve(tmp_path):
    ops = _ops("solve-pure", 5, tmp_path)
    for op in (_first(ops, "sd_l"), _first(ops, "br_l")):
        seconds, code, out, error = run.run_op(op)
        assert run.judge(op, code, out, error, {}) is None
        bad = _tampered(out, "outcome: ", _drop_last_survivor)
        assert run.judge(op, code, bad, error, {}) is not None


def test_verifier_rejects_tampered_lp_and_traveler(tmp_path):
    ops = _ops("solve-lp", 5, tmp_path)
    on_random4 = [op for op in ops if op.argv[1].endswith("random4-p0.game")]
    msd_l, msd_g = _first(on_random4, "msd_l"), _first(on_random4, "msd_g")
    for op in (msd_l, msd_g):
        seconds, code, out, error = run.run_op(op)
        assert run.judge(op, code, out, error, {}) is None
    bad = _tampered(out, "outcome: ", _drop_last_survivor)
    assert run.judge(msd_g, code, bad, error, {}) is not None
    traveler = next(op for op in ops if op.argv[1].endswith("traveler6-p0.game"))
    seconds, code, out, error = run.run_op(traveler)
    assert run.judge(traveler, code, out, error, {}) is None
    shifted = out.replace("closure ordinal: 5", "closure ordinal: 4")
    assert shifted != out and run.judge(traveler, code, shifted, error, {}) is not None


def test_verifier_rejects_tampered_epistemic_and_check(tmp_path):
    ops = _ops("epistemic", 5, tmp_path)
    ev = _first(ops, "eval", "rat & CB(rat)")
    seconds, code, out, error = run.run_op(ev)
    assert run.judge(ev, code, out, error, {}) is None
    bad = _tampered(out, "holds at: ", lambda line: line.rsplit(" ", 1)[0] + "\n")
    assert run.judge(ev, code, bad, error, {}) is not None

    check = _ops("theorems", 5, tmp_path)[0]
    seconds, code, out, error = run.run_op(check)
    assert run.judge(check, code, out, error, {}) is None
    assert run.judge(check, code, out.replace("PASS", "FAIL"), error, {}) is not None
    assert run.judge(check, 1, out, error, {}) is not None


def test_verifier_checks_committed_digests(tmp_path):
    op = _ops("solve-pure", 5, tmp_path)[0]
    seconds, code, out, error = run.run_op(op)
    assert run.judge(op, code, out, error, {op.key: run.digest(out)}) is None
    assert run.judge(op, code, out, error, {op.key: "0" * 12}) is not None


def _sample(tmp_path):
    """The first three ops of every workload, and an announcement of rationality."""
    picked = []
    for workload in workloads.WORKLOADS:
        ops = sorted(_ops(workload, 9, tmp_path / workload), key=lambda op: op.slot)
        picked += ops[:3]
        if workload == "epistemic":
            picked.append(_first(ops, "--rationality"))
    return [run.execute(op, {}) for op in picked]


def test_traced_replay_matches_untraced_and_counts_repeat(tmp_path):
    results = _sample(tmp_path)
    assert all(r.complaint is None for r in results)
    counts = []
    for k in range(2):
        tracer, replayed = run.traced_replay(results, {}, str(tmp_path / f"spans{k}.json"))
        assert [r.output for r in replayed] == [r.output for r in results]
        assert all(r.complaint is None for r in replayed)
        counts.append(list(tracer.calls))
    assert counts[0] == counts[1]
    assert counts[0][tracing.TARGETS.index("cli.main")] == len(results)
    assert (tmp_path / "spans0.json").stat().st_size > 0


def test_every_wrap_target_resolves():
    import epigame.dominance
    import epigame.lp

    original = epigame.lp.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert set(tracer.bindings) == set(tracing.TARGETS)
        expected = {
            "lp.solve": {"lp.solve", "dominance.solve"},
            "epistemic.rationality_event": {
                "epistemic.rationality_event",
                "announcements.rationality_event",
                "logic.rationality_event",
            },
            "optimality.require_monotone": {
                "optimality.require_monotone",
                "operators.require_monotone",
                "epistemic.require_monotone",
            },
            "optimality.satisfies_condition_A": {
                "optimality.satisfies_condition_A",
                "announcements.satisfies_condition_A",
            },
            "optimality.OptimalityProperty.holds": {"optimality.OptimalityProperty.holds"},
        }
        for target, places in expected.items():
            assert places <= set(tracer.bindings[target]), target
        assert epigame.dominance.solve is epigame.lp.solve is not original
    finally:
        tracer.uninstall()
    assert epigame.dominance.solve is epigame.lp.solve is original
    names = [name for name, _, _ in tracing.per_layer_names()]
    assert sorted(names) == sorted(set(tracer.metrics()) | {"trace.op_s", "trace.overhead_ratio"})


def test_missing_target_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + ("lp.no_such_function",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["lp.no_such_function"]
    assert tracer.metrics()["trace.missing"] == 1


def test_global_options_precede_the_subcommand(tmp_path):
    op = _ops("theorems", 3, tmp_path)[0]
    assert op.argv[:3] == ["--seed", op.argv[1], "check"]
    late = workloads.Op(op.argv[2:] + op.argv[:2], op.check, op.key)
    seconds, code, out, error = run.run_op(late)
    assert code == 2
    assert run.judge(late, code, out, error, {}) == "exit code 2"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorems", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_measure_runs_at_least_min_ops(monkeypatch):
    op = workloads.Op(["version"], lambda out: None, "k")
    monkeypatch.setattr(run, "execute", lambda op, digests: run.Result(op, 0.0, "", None, 1.0, 0.0))
    # A clock that advances 1 ms each time it is read, once per pass.
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=itertools.count(0, 1e-3).__next__))
    built = []

    def build(k):
        built.append(k)
        return [op] * 7

    results, passes = run.measure(build(1), build, 0.01, {})
    assert len(results) == 105 and passes == 15
    assert built == list(range(1, 16))
    # The time cap, MAX_FACTOR times the seconds, wins over MIN_OPS.
    results, passes = run.measure([op] * 7, build, 0.001, {})
    assert passes == run.MAX_FACTOR


def test_unreadable_lp_rows_are_listed_not_fatal():
    tracer = tracing.Tracer()
    index = tracing.TARGETS.index(tracing.LP_TARGET)
    solve = tracer._wrap(index, tracing.LP_TARGET, lambda *args, **kwargs: "result")
    tracer.op = 0
    assert solve(object()) == "result"
    assert solve(program=object()) == "result"
    tracer.op = None
    assert tracer.missing == [tracing.LP_ROWS]
    assert tracer.metrics()["lp.solve.calls"] == 2
    assert tracer.metrics()["trace.missing"] == 1
