"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads minimize scan-small --seeds 1-10 --json spread.json

Runs the BENCHMARK.json command once per (workload, seed), one process at a
time, and prints for each end-to-end metric its median, quartiles (Python's
``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and that spread against a third of the metric's bound.  With
``--trace-seed N`` it also makes one traced run per workload and keeps its
per-layer metrics.  perfbench/baseline.json is this script's ``--json``
output at commit 68e19aa.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="seed of one traced run per workload")
    parser.add_argument("--json", type=Path, help="also write every value and summary here")
    args = parser.parse_args()

    def run(workload, seed, trace):
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        return json.loads(lines[-1]), env

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds:
            result, env = run(workload, seed, 0)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {workload:<11} {name:<15} median {q2:<12.6g} spread {spread:7.2%} "
                  f"(bound/3 {bounds[name] / 3:.2%}) {flag}", flush=True)
        report[workload] = {"env": env, "failed": failed, "seeds": args.seeds, "metrics": summary}
        if args.trace_seed is not None:
            traced, _ = run(workload, args.trace_seed, 1)
            report[workload]["traced"] = {"seed": args.trace_seed, **traced}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
