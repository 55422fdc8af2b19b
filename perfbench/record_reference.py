"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py     # rewrites perfbench/reference.json

Run from the root of a checkout at the commit whose outputs are the
reference.  It minimizes every pooled random state and runs every scan grid
through the same calls the workloads make, which takes a few minutes.
"""
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gqd  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workdir = BENCH / "out" / "tmp-record"
    workdir.mkdir(parents=True, exist_ok=True)
    reference: dict = {"commit": run.git_sha(), "random": {}}
    try:
        for n in (2, 4):
            entries = []
            for seed in range(workloads.RANDOM_POOL):
                result = gqd.gqd(gqd.random_density((2,) * n, seed=seed), "minimize")
                if not result.converged:
                    raise RuntimeError(f"random n={n} seed={seed} did not converge")
                entries.append({"seed": seed, "value": result.value,
                                "evaluations": result.evaluations})
                print(f"random n={n} seed={seed}: {result.value!r}", flush=True)
            reference["random"][f"n{n}"] = entries
        for name in ("scan-small", "scan-large"):
            scan = workloads.make(name, workdir, reference={})
            entries = []
            for grid in scan.grids:
                deltas, values = scan.execute(grid)
                roots = workloads.crossings(deltas, values)
                print(f"{name} {grid}: {len(deltas)} points, crossings {roots}", flush=True)
                entries.append({"args": grid, "deltas": deltas, "values": values})
            reference[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
