"""Record the stdout digest of every op of a workload for the given seeds.

    python3 perfbench/record_digests.py solve-lp 0 1 2

It records passes 0 to PASSES - 1, the warm-up pass and as many measured
passes as a 20 s run reaches with room to spare; ops of later passes are
checked by the verifiers alone. Only answers the verifier accepts are recorded; any other answer is printed
and the script exits with 1 without writing. Entries are merged into
perfbench/digests/<workload>.json, which run.py compares every op against.
Run it on a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

PASSES = 8


def main(argv):
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    sys.path.insert(0, run.SRC)
    path = run.digest_path(workload)
    table = run.load_digests(workload)
    bad = 0
    for seed in seeds:
        root = os.path.join(run.ROOT, ".bench_work", f"record-{workload}-{seed}-{os.getpid()}")
        try:
            for k in range(PASSES):
                for op in workloads.build(workload, seed, root, k):
                    result = run.execute(op, {})
                    if result.complaint is not None:
                        print(f"{' '.join(op.argv)}: {result.complaint}")
                        bad += 1
                    table[op.key] = result.output
        finally:
            shutil.rmtree(root, ignore_errors=True)
        print(f"{workload} seed {seed}: {len(table)} digests")
    if bad:
        return 1
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digests": dict(sorted(table.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
