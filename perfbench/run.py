"""Benchmark for the epigame command line, run from the root of a checkout.

    python3 perfbench/run.py --workload solve-lp --seed 1 --seconds 20 --trace 0

Each op is one user command, run in-process through ``epigame.cli.main(argv)``
with stdout and stderr captured: a closed loop with one client, where the
next op starts when the previous one has returned and its answer has been
checked. Ops run in whole passes (see workloads.py), each built when the run
reaches it, until ``--seconds`` have gone by and at least MIN_OPS ops have
run, so that op_s_p90 has ten samples beyond it; a run stops after MAX_FACTOR
times ``--seconds`` in any case. Every answer is checked; a failed op is
counted, never fatal.

Op and set-up times are reported at a reference CPU speed. On a shared
virtual machine the CPU speed can drift by 20 % and more over seconds, and
every op's wall time drifts with it. So a fixed calibration kernel (Fraction
arithmetic, set and dict work, like the program's hot loops, and no epigame
code) runs before every op, and each op's wall time is scaled by
K_REF / (median of the kernel times within WINDOW seconds of the op). On a 2-vCPU Xeon VM,
alternating one solve op with such a kernel for 60 s, the op's mean time
varied by 15.7 % between 2 s windows, and its scaled time by 2.3 %. Raw
wall-clock figures are printed too.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` the same ops are then replayed with the tracer installed, and
the last line holds the per-layer metrics. Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WARMUP_OPS = 3
MIN_OPS = 100
MAX_FACTOR = 3
K_REF = 0.005  # seconds the calibration kernel takes at the reference speed
WINDOW = 5.0  # seconds of kernel times that scale one op


@dataclass
class Result:
    op: workloads.Op
    seconds: float  # wall time of the op
    output: str  # digest of stdout: results do not keep whole outputs
    complaint: str | None  # None when the answer was accepted
    kernel: float  # wall time of the calibration kernel run just before
    start: float  # perf_counter() when that kernel started


def kernel():
    """Time a fixed amount of pure-Python work in the style of the program."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 1200):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = frozenset((i % 13, i % 17))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def scaled(results):
    """Op times at the reference speed, each against the kernels near it in time."""
    starts = [r.start for r in results]
    out = []
    for r in results:
        lo = bisect.bisect_left(starts, r.start - WINDOW / 2)
        hi = bisect.bisect_right(starts, r.start + WINDOW / 2)
        out.append(r.seconds * K_REF / statistics.median(x.kernel for x in results[lo:hi]))
    return out


def run_op(op):
    """Run one command in-process; returns (seconds, code, stdout, error)."""
    import epigame.cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = epigame.cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), error


def judge(op, code, stdout, error, digests):
    """None when the op succeeded and its answer is right, else why not."""
    if error is not None:
        return f"raised {error}"
    if code != 0:
        return f"exit code {code}"
    if "FAIL" in stdout:
        return "printed FAIL"
    try:
        complaint = op.check(stdout)
    except Exception as exc:  # a verifier crash must not stop the run
        complaint = f"verifier raised {type(exc).__name__}: {exc}"
    if complaint:
        return complaint
    want = digests.get(op.key)
    if want is not None and want != digest(stdout):
        return "output differs from the committed digest"
    return None


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()[:12]


def digest_path(workload):
    return os.path.join(HERE, "digests", f"{workload}.json")


def load_digests(workload):
    """Committed stdout digests by op key; empty when none were recorded."""
    try:
        with open(digest_path(workload), encoding="utf-8") as fh:
            return json.load(fh)["digests"]
    except FileNotFoundError:
        return {}


def execute(op, digests):
    start = time.perf_counter()
    calibration = kernel()
    seconds, code, stdout, error = run_op(op)
    complaint = judge(op, code, stdout, error, digests)
    return Result(op, seconds, digest(stdout), complaint, calibration, start)


def import_fresh():
    """Import epigame from the checkout, dropping any copy loaded before."""
    for name in [m for m in sys.modules if m == "epigame" or m.startswith("epigame.")]:
        del sys.modules[name]
    import epigame.cli  # noqa: F401


def set_up(workload, seed, root, digests):
    """Import, write the warm-up pass and run its first ops, write pass 1.

    Returns pass 1, the first measured one.
    """
    import_fresh()
    shutil.rmtree(root, ignore_errors=True)
    warm = workloads.build(workload, seed, root, 0)
    for op in sorted(warm, key=lambda op: op.slot)[:WARMUP_OPS]:
        execute(op, digests)
    return workloads.build(workload, seed, root, 1)


def measure(first, build, seconds, digests):
    """Whole passes, from ``first`` on and each next one from build(k), until
    the time is up and MIN_OPS have run. Returns the results and the passes run."""
    results = []
    start = time.perf_counter()
    ops, k = first, 1
    while True:
        results.extend(execute(op, digests) for op in ops)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(results) >= MIN_OPS or elapsed >= MAX_FACTOR * seconds:
            return results, k
        k += 1
        ops = build(k)


def latency_metrics(results, lat):
    failed = sum(r.complaint is not None for r in results)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_s_p50": statistics.median(lat),
        "op_s_p90": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
        "ok_ratio": 1 - failed / len(lat),
    }


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def traced_replay(results, digests, spans_path):
    """Replay the measured ops with the tracer on; outputs must not change.

    epigame is imported afresh first, so that nothing the measured run left in
    its modules makes the replayed calls fewer.
    """
    import_fresh()
    tracer = tracing.Tracer()
    tracer.install()
    replayed = []
    try:
        for op_id, before in enumerate(results):
            tracer.op = op_id
            r = execute(before.op, digests)
            tracer.op = None
            if r.complaint is None and r.output != before.output:
                r.complaint = "traced output differs from the untraced one"
            replayed.append(r)
    finally:
        tracer.op = None
        tracer.uninstall()
    tracer.write(spans_path)
    return tracer, replayed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "epigame", "cli.py")):
        print(f"error: no epigame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    digests = load_digests(args.workload)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")

    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        first = None  # one set of instances alive at a time
        gc.collect()
        before = kernel()
        start = time.perf_counter()
        first = set_up(args.workload, args.seed, work, digests)
        setup_raw.append(time.perf_counter() - start)
        setup_times.append(setup_raw[-1] * K_REF * 2 / (before + kernel()))

    # The instances and expected answers are the benchmark's, not the
    # program's: keep the cyclic collector from walking them during ops.
    def frozen(ops):
        gc.collect()
        gc.freeze()
        return ops

    frozen(first)
    rss_start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        results, rounds = measure(
            first,
            lambda k: frozen(workloads.build(args.workload, args.seed, work, k)),
            args.seconds,
            digests,
        )
        metrics = latency_metrics(results, scaled(results))
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = latency_metrics(results, [r.seconds for r in results])
        raw["setup_s"] = statistics.median(setup_raw)
        attempted = len(results)
        failures = [r for r in results if r.complaint is not None]

        print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in {rounds} passes, "
              f"closed loop, one client; times at reference speed (raw wall clock)")
        for name, value in metrics.items():
            shown = f" ({raw[name]:.6g})" if name in raw and name != "ok_ratio" else ""
            print(f"  {name} = {value:.6g}{shown} {END_TO_END_UNITS[name]}")
        print(f"  failed_ratio = {len(failures) / attempted:.6g}; "
              f"op_s_p90 from {attempted} samples"
              f"{' (too few: the run hit its time cap)' if attempted < MIN_OPS else ''}; "
              f"peak RSS before the first op {rss_start:.6g} MB; "
              f"median calibration kernel {statistics.median(r.kernel for r in results):.6g} s")
        known = sum(r.op.key in digests for r in results)
        print(f"  outputs matched against committed digests: {known} of {attempted}")

        if args.trace:
            # One file per workload, overwritten by its next traced run, so
            # that repeated runs do not fill the disk (a file reaches 60 MB).
            spans_path = os.path.join(ROOT, ".bench_work", f"spans-{args.workload}.json")
            tracer, replayed = traced_replay(results, digests, spans_path)
            layer = tracer.metrics()
            layer["trace.op_s"] = sum(r.seconds for r in replayed)
            layer["trace.overhead_ratio"] = sum(scaled(replayed)) / sum(scaled(results))
            failures += [r for r in replayed if r.complaint is not None]
            attempted += len(replayed)
            units = {name: unit for name, unit, _ in tracing.per_layer_names()}
            print(f"traced replay: {len(replayed)} ops, spans in {spans_path}")
            if tracer.missing:
                print("  missing wrap targets: " + ", ".join(tracer.missing))
            for name, value in layer.items():
                print(f"  {name} = {value:.6g} {units[name]}")
            reported = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        else:
            reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

        for r in failures[:10]:
            print(f"  FAILED {' '.join(r.op.argv)}: {r.complaint}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
